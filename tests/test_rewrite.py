"""Link-rewriting (M11).

``rewrite_links`` mirrors the reference's bs4+lxml parse→mutate→str(soup)
contract (downloader.py:117-138) including serialization artifacts — the
reference golden test (tests/downloader/test_downloader.py:6-18) is
reproduced VERBATIM below.
"""

from europarl_crawler_ray.functions.rewrite import rewrite_links

BASE = "https://www.test.de"


def test_reference_golden_byte_identical():
    """Exact copy of the reference's test_rewrite_links assert."""
    base_url = "https://www.test.de"

    test_string = '<html><head><link href="styles.css" rel="stylesheet"><script src="/portal/js/behaviour.js" type="text/javascript"> </script></head><body><a href="/test">Testlink</a><a href="#test">Testlink</a></body></html>'

    expected_string = '<html><head><link href="https://www.test.de/styles.css" rel="stylesheet"/><script src="https://www.test.de/portal/js/behaviour.js" type="text/javascript"> </script></head><body><a href="https://www.test.de/test">Testlink</a><a href="#test">Testlink</a></body></html>'

    result = rewrite_links(test_string, base_url)

    assert result == expected_string


def test_reference_case_link_semantics():
    src = (
        '<html><head><link href="styles.css" rel="stylesheet">'
        '<script src="/portal/js/behaviour.js" type="text/javascript"> </script></head>'
        '<body><a href="/test">Testlink</a><a href="#test">Testlink</a></body></html>'
    )
    out = rewrite_links(src, BASE)
    assert 'href="https://www.test.de/styles.css"' in out
    assert 'href="https://www.test.de/test"' in out
    assert 'href="#test"' in out  # anchors untouched
    # void <link> self-closes, exactly like bs4+lxml reserialization
    assert 'rel="stylesheet"/>' in out


def test_script_src_rewritten_img_rewritten_iframe_not():
    src = (
        "<html><body>"
        '<img src="a.png"><iframe src="b.html"></iframe><script src="c.js"></script>'
        "</body></html>"
    )
    out = rewrite_links(src, BASE)
    assert 'src="https://www.test.de/a.png"' in out
    assert 'src="b.html"' in out  # iframe not in reference's rewrite set
    assert 'src="https://www.test.de/c.js"' in out
    assert '<img src="https://www.test.de/a.png"/>' in out  # void self-close


def test_fragment_gets_html_body_wrapper():
    # bs4+lxml wraps fragments in <html><body> — structure recovery
    out = rewrite_links('<a href="/x">y</a>', BASE)
    assert out == '<html><body><a href="https://www.test.de/x">y</a></body></html>'


def test_head_content_partitioned():
    out = rewrite_links('<link href="s.css" rel="x"><a href="/t">z</a>', BASE)
    assert out == (
        '<html><head><link href="https://www.test.de/s.css" rel="x"/></head>'
        '<body><a href="https://www.test.de/t">z</a></body></html>'
    )


def test_entity_escaping_round_trip():
    src = '<html><body><a href="/q?a=1&amp;b=2">x &amp; y</a></body></html>'
    out = rewrite_links(src, BASE)
    # parsed & is re-escaped minimally, query survives in the joined url
    assert out == (
        '<html><body><a href="https://www.test.de/q?a=1&amp;b=2">x &amp; y</a></body></html>'
    )


def test_script_content_not_escaped():
    src = '<html><body><script>if (a < b && c > d) {}</script></body></html>'
    assert rewrite_links(src, BASE) == src


def test_doctype_and_comment_preserved():
    src = "<!DOCTYPE html><!--c--><html><body><p>t</p></body></html>"
    assert rewrite_links(src, BASE) == src


def test_empty_href_does_not_crash():
    # the reference would IndexError on href="" (value[0]); we no-op
    out = rewrite_links('<html><body><a href="">x</a></body></html>', BASE)
    assert 'href=""' in out
