"""Text-analysis kernels for large-scale training-data pipelines:
token counting, quality stats, fingerprinting, language-ID.

All kernels are batch-vectorized (pandas str / numpy) and are used inside
``map_batches``; the regex character classes are kept ASCII-explicit so the
DuckDB oracle SQL (RE2) computes the identical value.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd

# explicit ASCII whitespace class — identical semantics in Python re and RE2
WS = r"[ \t\n\r\f]"
NON_WS = r"[^ \t\n\r\f]"

_TOKEN_RE = re.compile(NON_WS + "+")
_ALPHA_RE = re.compile(r"[a-zA-Z]")
_DIGIT_RE = re.compile(r"[0-9]")
_COLLAPSE_RE = re.compile(WS + "+")


def token_counts(texts: pd.Series) -> np.ndarray:
    """Whitespace-token count per text (len(regexp_extract_all(t,'\\S+')))."""
    return texts.str.count(_TOKEN_RE).fillna(0).to_numpy(dtype=np.int64)


def quality_stats(texts: pd.Series) -> pd.DataFrame:
    """Integer quality features per text (floats avoided so value-hash
    comparison against SQL oracles is exact)."""
    return pd.DataFrame(
        {
            "n_chars": texts.str.len().fillna(0).astype(np.int64),
            "n_alpha": texts.str.count(_ALPHA_RE).fillna(0).astype(np.int64),
            "n_digit": texts.str.count(_DIGIT_RE).fillna(0).astype(np.int64),
            "n_tokens": token_counts(texts),
        }
    )


def normalize_for_fp(text: str) -> str:
    """lower + collapse ASCII whitespace runs to single spaces."""
    return _COLLAPSE_RE.sub(" ", text.lower())


def md5_hex(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def fingerprints(texts: pd.Series) -> list[str | None]:
    """Content fingerprint: md5 of the normalized text (None-safe — the
    pages text column is nullable: failed fetches, decode errors, pdf
    stubs)."""
    return [None if t is None else md5_hex(normalize_for_fp(t)) for t in texts]


# BPE-ish pre-tokenization (letter runs / digit runs / single symbol),
# the word-level split most BPE vocabularies start from; class kept
# ASCII-explicit so RE2 (DuckDB) computes the identical count
BPE_RE_STR = r"[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9 \t\n\r\f]"
_BPE_RE = re.compile(BPE_RE_STR)


def bpe_token_counts(texts: pd.Series) -> np.ndarray:
    """Count of BPE-style pre-tokens per text."""
    return texts.str.count(_BPE_RE).fillna(0).to_numpy(dtype=np.int64)


STOPWORDS_EN = (
    "the and of to in is a that for it with on as are was at by an be this "
    "from or which you not have has had but they his her its"
).split()

_STOP_RE = re.compile(r"[a-z]+")


def stopword_counts(texts: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """(n_stopwords, n_words) per text — lowercase ASCII-letter words."""
    sw = set(STOPWORDS_EN)
    n_stop = np.zeros(len(texts), dtype=np.int64)
    n_words = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        if t is None:
            continue
        words = _STOP_RE.findall(t.lower())
        n_words[i] = len(words)
        n_stop[i] = sum(1 for w in words if w in sw)
    return n_stop, n_words


# ----------------------------------------------------------------- lang id

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "in", "is", "a", "that", "for", "it", "with", "on"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "von", "mit", "den", "ein", "zu", "im"},
    "fr": {"le", "la", "les", "et", "de", "des", "un", "une", "est", "dans", "pour", "que"},
    "es": {"el", "la", "los", "las", "y", "de", "que", "en", "un", "una", "es", "por"},
}

_WORD_RE = re.compile(r"[a-zA-ZäöüßéèêàçñáíóúÄÖÜ]+")


def predict_lang(text: str) -> str:
    """n-gram/stopword heuristic language-ID. CJK codepoint share decides
    'zh'; else the language whose stopword list scores highest ('en' tie)."""
    if not text:
        return "en"
    sample = text[:2000]
    cjk = sum(1 for c in sample if "一" <= c <= "鿿")
    if cjk > len(sample) * 0.05:
        return "zh"
    words = [w.lower() for w in _WORD_RE.findall(sample)]
    if not words:
        return "en"
    best, best_score = "en", -1.0
    for lang, sw in _STOPWORDS.items():
        score = sum(1 for w in words if w in sw) / len(words)
        if score > best_score:
            best, best_score = lang, score
    return best


def bigram_stats(texts: pd.Series) -> tuple[np.ndarray, np.ndarray]:
    """(n_bigrams, top_bigram_n) per text over lowercased whitespace
    tokens — the dominant-bigram repetition signal (Gopher §A1.1).
    Per-doc Counter is the string-kernel floor; runs inside map_batches."""
    from collections import Counter

    n_bg = np.zeros(len(texts), dtype=np.int64)
    top = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        if not t:
            continue
        ws = _TOKEN_RE.findall(t.lower())
        if len(ws) >= 2:
            c = Counter(zip(ws, ws[1:]))
            n_bg[i] = len(ws) - 1
            top[i] = max(c.values())
    return n_bg, top


