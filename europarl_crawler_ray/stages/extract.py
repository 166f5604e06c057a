"""Extraction stage — stateless ``map_batches`` over zero-copy Arrow.

Replaces the reference's ``PostProcessingWorker`` (E2-E6,
``/root/reference/europarl/workers/postprocessingworker.py:37-65`` and
``europarl/rules/extraction.py:27-52``): per-filetype dispatch —

- ``.html``  → bs4-4.9.3-equivalent get_text (byte-identical contract)
- ``.pdf``   → from-scratch PDF text extraction (``functions/pdf.py``);
  the reference runs ``pdfminer.high_level.extract_text`` which is absent
  from this environment, so the parser/interpreter is reimplemented
  against the public PDF spec with pdfminer-shaped output
  (lines end ``\\n``, pages end ``\\x0c``)
- anything else → None (reference returns content None for unknown formats)

HTML extraction runs once per document: a one-pass regex tokenizer, with
the ``html.parser`` collector as its whole-document fallback
(``functions/extract.py``). The batch loop is over an Arrow binary column
with no pandas conversion, and filesize uses the pyarrow kernel.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.extract import html_to_text
from ..functions.pdf import pdf_to_text


def filetype_of_url(url: str) -> str:
    # strip the query BEFORE looking for the extension — a dot inside
    # ?v=1.2 is not a filetype
    tail = url.split("?", 1)[0].rsplit("/", 1)[-1]
    if "." in tail:
        return "." + tail.rsplit(".", 1)[1]
    return ""


def extract_batch(batch: pa.Table, default_filetype: str = "") -> pa.Table:
    """Adds text / filesize / extract_note columns to a fetched batch.

    Expects columns: url, html (binary, null for failed fetches).
    ``default_filetype``: applied when the url has no extension — the
    europarl rules always carry one (reference semantics: unknown format →
    content None, extraction.py:46-47) but Common-Crawl-style urls often
    don't; pass ".html" for generic web ingest.
    """
    urls = batch.column("url").to_pylist()
    html_col = batch.column("html")
    texts: list[str | None] = [None] * len(urls)
    notes: list[str | None] = [None] * len(urls)
    for i, url in enumerate(urls):
        blob = html_col[i].as_py()
        if blob is None:
            continue
        ft = filetype_of_url(url) or default_filetype
        if ft == ".html":
            texts[i] = html_to_text(blob)
            if texts[i] is None:
                notes[i] = "decode-error"
        elif ft == ".pdf":
            # reference: pdfminer.high_level.extract_text
            # (extraction.py:44-45); from-scratch extractor here because
            # pdfminer is absent from the environment.
            texts[i] = pdf_to_text(blob)
            if texts[i] is None:
                notes[i] = "decode-error"
        else:
            texts[i] = None  # reference extraction.py:46-47 (unknown format)

    out = batch.append_column("text", pa.array(texts, pa.string()))
    out = out.append_column(
        "filesize",
        pc.cast(pc.binary_length(html_col), pa.int64()),
    )
    out = out.append_column("extract_note", pa.array(notes, pa.string()))
    return out


def to_pages(batch: pa.Table) -> pa.Table:
    """Project a fetched+extracted batch to the BASELINE.json input_hint
    pages columns (url, warc_ts, html, text, lang)."""
    cols = ["url", "requested_at", "html", "text", "lang"]
    t = batch.select(cols)
    return t.rename_columns(["url", "warc_ts", "html", "text", "lang"])


def to_index_docs(batch: pa.Table) -> pa.Table:
    """Assemble the flattened output-record shape (reference E5+E6: metadata
    join + data merge, documents.py:202-240 / postprocessingworker.py:45-52).
    All metadata is already co-located on the row — the 4-way join is gone."""
    urls = batch.column("url").to_pylist()
    filetypes = pa.array([filetype_of_url(u) for u in urls], pa.string())
    filesize = (
        batch.column("filesize")  # already computed by extract_batch
        if "filesize" in batch.column_names
        else pc.cast(pc.binary_length(batch.column("html")), pa.int64())
    )
    t = pa.table(
        {
            "url": batch.column("url"),
            "downloaded_at": batch.column("requested_at"),
            "filesize": filesize,
            "filetype": filetypes,
            "content": batch.column("text"),
            "language": batch.column("lang"),
            "rulename": batch.column("rulename"),
            "session_date": batch.column("date"),
        }
    )
    return t
