"""CDX random-access fetch semantics on planted fixtures. Oracle parity
at gate scale is covered by the gate."""

import gzip
import hashlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from europarl_crawler_ray.pipelines.queries import q_cdx_index
from europarl_crawler_ray.sources.warc import (
    parse_warc,
    read_warc_record_at,
    write_warc_gz,
    write_warc_gz_indexed,
)


def test_indexed_write_matches_plain_write():
    recs = [
        ("https://x/doc/1", b"hello", "2021-01-01T00:00:00Z"),
        ("https://x/doc/2", b"world wide", "2021-01-02T00:00:00Z"),
    ]
    blob, index = write_warc_gz_indexed(recs)
    assert blob == write_warc_gz(recs)  # indexing never perturbs bytes
    assert [e["uri"] for e in index] == ["https://x/doc/1", "https://x/doc/2"]
    # offsets/lengths tile the shard exactly
    assert index[0]["offset"] == 0
    assert index[0]["offset"] + index[0]["length"] == index[1]["offset"]
    assert index[1]["offset"] + index[1]["length"] == len(blob)
    assert index[1]["digest"] == hashlib.md5(b"world wide").hexdigest()


def test_random_access_fetch(tmp_path):
    recs = [(f"https://x/doc/{i}", f"payload {i}".encode(), "2021-01-01T00:00:00Z")
            for i in range(5)]
    blob, index = write_warc_gz_indexed(recs)
    p = tmp_path / "s.warc.gz"
    p.write_bytes(blob)
    # each member fetches in isolation, out of order
    for e in reversed(index):
        rec = read_warc_record_at(str(p), e["offset"], e["length"])
        assert rec["uri"] == e["uri"]
        assert hashlib.md5(rec["payload"]).hexdigest() == e["digest"]
    # a wrong offset is detected, not silently misread
    with pytest.raises(Exception):
        read_warc_record_at(str(p), index[1]["offset"] + 1, index[1]["length"])


def test_member_isolation_is_real_gzip_framing(tmp_path):
    recs = [("https://x/doc/9", b"abc", "2021-01-01T00:00:00Z")]
    blob, index = write_warc_gz_indexed(recs)
    member = blob[index[0]["offset"] : index[0]["offset"] + index[0]["length"]]
    assert parse_warc(gzip.decompress(member))[0]["payload"] == b"abc"


def test_cdx_index_end_to_end(ray_session, tmp_path):
    texts = {i: f"text number {i}" for i in range(20)}
    t = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values())),
            "lang": pa.array(["en"] * 20),
            "source": pa.array(["s"] * 20),
            "n_chars": pa.array([len(v) for v in texts.values()], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    out = q_cdx_index(str(tmp_path)).to_pandas().set_index("doc_id")
    assert len(out) == 20 and (out["fetched_ok"] == 1).all()
    assert out.loc[7, "digest"] == hashlib.md5(b"text number 7").hexdigest()
    assert out.loc[7, "rec_len"] == len("text number 7")
