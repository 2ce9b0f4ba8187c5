"""String-similarity primitives for column-name and row-value matching.

Everything in this module is deterministic and self-contained: no model
downloads and no network.  The only global state is the default provider
instance and three bounded memos that never change a result: each
:class:`TrigramProvider` keeps the vectors it has embedded together with
their norms, :func:`token_set` keeps token sets, and :func:`gestalt_ratio`
keeps the character positions of each right-hand string.  Column matching
scores every pair over a few dozen distinct names, so each name is
embedded, tokenised and indexed once.  :func:`gestalt_ratio` runs its own
Ratcliff/Obershelp block matching; difflib is no longer used.

All similarity functions return floats in ``[0.0, 1.0]``.  All but
:func:`gestalt_ratio` are symmetric in their two string arguments; the
gestalt ratio's block matching depends on which string comes first
(``("a_ac", "_ca")`` gives 0.286, ``("_ca", "a_ac")`` gives 0.571).
Column matching stays deterministic because ``candidate_pairs`` always
puts the earlier database on the left.

The semantic fallback is a hashed character-trigram embedding.  Before
hashing, tokens are passed through a small synonym lexicon so that domain
terms different sources tend to disagree on ("hospital" vs "clinic",
"medication" vs "drug") land on the same vector.  Callers who want a real
embedding model can pass anything satisfying :class:`SemanticProvider`.
"""

from __future__ import annotations

import functools
import re
import zlib
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "DEFAULT_SYNONYMS",
    "SemanticProvider",
    "TrigramProvider",
    "gestalt_ratio",
    "indel_ratio",
    "lcs_length",
    "normalize",
    "semantic_sim",
    "similarity_matrix",
    "sorted_token_form",
    "token_overlap",
    "token_set",
    "token_sort_ratio",
    "trigram_embed",
]

_NON_ALNUM_RUN = re.compile(r"[^0-9a-z]+")
_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")

# Canonical forms for terms that independent data sources routinely name
# differently.  Kept deliberately tiny: the point is not coverage but that
# the built-in provider recognises obvious same-entity vocabulary without
# pulling in a model.
DEFAULT_SYNONYMS: dict[str, str] = {
    "hospital": "clinic",
    "infirmary": "clinic",
    "medication": "drug",
    "medicine": "drug",
    "patient": "person",
    "citizen": "person",
    "resident": "person",
    "physician": "doctor",
}


def normalize(text: str) -> str:
    """Lowercase, collapse non-alphanumeric runs to single spaces, trim."""
    return _NON_ALNUM_RUN.sub(" ", text.lower()).strip()


def gestalt_ratio(a: str, b: str) -> float:
    """Gestalt (Ratcliff/Obershelp) similarity of two strings, case-folded.

    This is ``2 * M / (len(a) + len(b))`` where M counts characters in
    recursively matched longest common blocks.  Two empty strings score 1.0.
    It equals ``difflib.SequenceMatcher(None, a.lower(), b.lower(),
    autojunk=False).ratio()`` bit for bit, ties included: of the longest
    blocks, the one starting earliest in ``a``, then earliest in ``b``.
    Without junk, difflib's block extension never fires, and its sort and
    merging of adjacent blocks do not change the sum, so all three are left
    out.
    """
    a = a.lower()
    b = b.lower()
    total = len(a) + len(b)
    if not total:
        return 1.0
    b2j = _positions(b)
    matched = 0
    queue = [(0, len(a), 0, len(b))]
    while queue:
        alo, ahi, blo, bhi = queue.pop()
        besti = bestj = bestsize = 0
        # j2len[j]: length of the longest match ending at a[i - 1], b[j].
        j2len: dict[int, int] = {}
        for i in range(alo, ahi):
            get = j2len.get
            j2len = {}
            for j in b2j.get(a[i], ()):
                if j < blo:
                    continue
                if j >= bhi:
                    break
                k = j2len[j] = get(j - 1, 0) + 1
                if k > bestsize:
                    besti, bestj, bestsize = i - k + 1, j - k + 1, k
        if bestsize:
            matched += bestsize
            if alo < besti and blo < bestj:
                queue.append((alo, besti, blo, bestj))
            if besti + bestsize < ahi and bestj + bestsize < bhi:
                queue.append((besti + bestsize, ahi, bestj + bestsize, bhi))
    return 2.0 * matched / total


def lcs_length(a: str, b: str) -> int:
    """Length of the longest common subsequence of ``a`` and ``b``.

    Bit-parallel formulation: the shorter string is encoded as per-character
    bitmasks and a running row of the DP table is kept in a single integer,
    which is fast for one pair.  :func:`similarity_matrix` runs the same
    recurrence over many pairs at once and falls back to this for left
    strings over 64 characters; tests use it as the reference.
    """
    if not a or not b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    masks: dict[str, int] = {}
    bit = 1
    for ch in a:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    width_mask = bit - 1
    row = width_mask
    for ch in b:
        match = masks.get(ch, 0)
        carry = row & match
        row = ((row + carry) | (row & ~match)) & width_mask
    # Zero bits in the final row mark matched positions of the shorter string.
    return len(a) - row.bit_count()


def indel_ratio(a: str, b: str) -> float:
    """Similarity under insertions/deletions only: ``2 * LCS / (|a| + |b|)``."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * lcs_length(a, b) / total


# Pairs advanced together by ``similarity_matrix``; this many uint64 words
# bounds each of its temporaries, whatever the size of the output.
_LANE_BLOCK = 4096
_LANE_BITS = 64


def similarity_matrix(left_forms: Sequence[str], right_forms: Sequence[str]) -> np.ndarray:
    """``indel_ratio`` of every left × right pair, as an ``(L, R)`` array.

    One uint64 lane per pair runs the bit-parallel LCS recurrence of
    :func:`lcs_length` with the left string as the bit pattern (Hyyrö,
    "Bit-parallel LCS-length computation revisited", 2004).  Right strings
    are padded with character index 0, whose mask is empty, so padding
    leaves a lane unchanged.  Left strings longer than 64 characters take
    their row from :func:`indel_ratio` instead.
    """
    out = np.empty((len(left_forms), len(right_forms)))
    short = []
    for i, left in enumerate(left_forms):
        if len(left) <= _LANE_BITS:
            short.append(i)
        else:
            out[i] = [indel_ratio(left, right) for right in right_forms]
    if not short or not right_forms:
        return out

    # Character index 0 is padding, and also every character no left has.
    alphabet = {ch: k for k, ch in enumerate(sorted({ch for i in short for ch in left_forms[i]}), 1)}
    masks = [[0] * (len(alphabet) + 1) for _ in short]
    for row, i in zip(masks, short):
        for bit, ch in enumerate(left_forms[i]):
            row[alphabet[ch]] |= 1 << bit
    flat_masks = np.array(masks, dtype=np.uint64).ravel()
    left_len = np.array([len(left_forms[i]) for i in short])
    right_len = np.array([len(s) for s in right_forms])
    codes = np.zeros((right_len.max(), len(right_forms)), dtype=np.intp)
    for j, s in enumerate(right_forms):
        codes[: len(s), j] = [alphabet.get(ch, 0) for ch in s]

    rows = np.array(short)
    lanes = len(short) * len(right_forms)
    for start in range(0, lanes, _LANE_BLOCK):
        li, rj = np.divmod(np.arange(start, min(start + _LANE_BLOCK, lanes)), len(right_forms))
        mask_base = li * (len(alphabet) + 1)
        v = np.full(len(li), np.iinfo(np.uint64).max, dtype=np.uint64)
        for step_codes in codes:
            u = v & flat_masks[mask_base + step_codes[rj]]
            v = (v + u) | (v - u)
        # Bits above the pattern stay set, so the clear bits count the LCS.
        total = left_len[li] + right_len[rj]
        ratio = 2.0 * np.bitwise_count(~v) / np.maximum(total, 1)
        out[rows[li], rj] = np.where(total == 0, 1.0, ratio)
    return out


def sorted_token_form(text: str) -> str:
    """Normalize, split on whitespace, sort tokens, re-join with spaces."""
    return " ".join(sorted(normalize(text).split()))


def token_sort_ratio(a: str, b: str) -> float:
    """Indel similarity of the sorted-token forms of ``a`` and ``b``.

    Word order does not matter: ``"John Smith"`` vs ``"Smith John"`` is 1.0.
    """
    return indel_ratio(sorted_token_form(a), sorted_token_form(b))


# Most entries each memo in this module holds: far more distinct column
# names than a catalog has, and a bound on memory for a long-lived process
# that scores many catalogs.
_MEMO_LIMIT = 4096


@functools.lru_cache(maxsize=_MEMO_LIMIT)
def token_set(text: str) -> frozenset[str]:
    """Tokens of ``text``, splitting on non-alphanumerics and camelCase."""
    return frozenset(normalize(_CAMEL_BOUNDARY.sub(" ", text)).split())


@functools.lru_cache(maxsize=_MEMO_LIMIT)
def _positions(text: str) -> dict[str, list[int]]:
    """Ascending positions of each character of ``text`` (shared, read-only)."""
    b2j: dict[str, list[int]] = {}
    for j, ch in enumerate(text):
        b2j.setdefault(ch, []).append(j)
    return b2j


def token_overlap(a: str, b: str) -> float:
    """Overlap coefficient of the token sets: ``|A & B| / min(|A|, |B|)``.

    Either side empty (no tokens at all) scores 0.0.
    """
    ta = token_set(a)
    tb = token_set(b)
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / min(len(ta), len(tb))


@runtime_checkable
class SemanticProvider(Protocol):
    """Anything that can embed a short string as a fixed-size real vector.

    Implementations must be deterministic for a given input and must return
    vectors of the same ``dimension`` for every call; zero vectors are
    allowed and are treated as "no semantic signal".
    """

    dimension: int

    def embed(self, text: str) -> np.ndarray:  # pragma: no cover - protocol
        ...


class TrigramProvider:
    """Hashed character-trigram embeddings with synonym canonicalization.

    The input is normalized, each token is mapped through the synonym
    lexicon, and the result is padded and sliced into character trigrams.
    Each trigram is hashed (CRC-32) into one of ``dimension`` buckets and
    the count vector is L2-normalized.  Deterministic across processes and
    platforms.

    Each instance remembers the vectors it has returned, each with its
    L2 norm, so a name is embedded once however many pairs it takes part
    in.  The vectors are shared between callers and therefore read-only,
    and ``synonyms`` must not change after the first call.
    """

    def __init__(
        self,
        dimension: int = 256,
        synonyms: dict[str, str] | None = None,
    ) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.synonyms = DEFAULT_SYNONYMS if synonyms is None else dict(synonyms)
        self._vectors: dict[str, tuple[np.ndarray, float]] = {}

    def canonical_text(self, text: str) -> str:
        """Normalized text with each token replaced by its canonical form."""
        tokens = normalize(_CAMEL_BOUNDARY.sub(" ", text)).split()
        return " ".join(self.synonyms.get(tok, tok) for tok in tokens)

    def embed(self, text: str) -> np.ndarray:
        return self._embed_with_norm(text)[0]

    def _embed_with_norm(self, text: str) -> tuple[np.ndarray, float]:
        entry = self._vectors.get(text)
        if entry is None:
            if len(self._vectors) >= _MEMO_LIMIT:
                self._vectors.clear()
            vec = self._embed_uncached(text)
            vec.setflags(write=False)
            entry = self._vectors[text] = (vec, float(np.linalg.norm(vec)))
        return entry

    def _embed_uncached(self, text: str) -> np.ndarray:
        canon = self.canonical_text(text)
        vec = np.zeros(self.dimension, dtype=np.float64)
        if len(canon) < 3:
            # Too short to form a trigram on its own; padding would
            # manufacture signal out of nothing.
            return vec
        padded = f" {canon} "
        for i in range(len(padded) - 2):
            gram = padded[i : i + 3]
            bucket = zlib.crc32(gram.encode("utf-8")) % self.dimension
            vec[bucket] += 1.0
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


_DEFAULT_PROVIDER = TrigramProvider()


def trigram_embed(text: str) -> np.ndarray:
    """Embed ``text`` with the default :class:`TrigramProvider` (read-only)."""
    return _DEFAULT_PROVIDER.embed(text)


def semantic_sim(a: str, b: str, provider: SemanticProvider | None = None) -> float:
    """Cosine similarity of provider embeddings, clamped to ``[0, 1]``.

    If either embedding is the zero vector the score is 0.0.  A plain
    :class:`TrigramProvider` supplies the norms it stored with its vectors;
    any other provider, a subclass included, has them computed here.
    """
    prov = _DEFAULT_PROVIDER if provider is None else provider
    if type(prov) is TrigramProvider:
        va, na = prov._embed_with_norm(a)
        vb, nb = prov._embed_with_norm(b)
    else:
        va = prov.embed(a)
        vb = prov.embed(b)
        na = float(np.linalg.norm(va))
        nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    cos = float(np.dot(va, vb) / (na * nb))
    return min(1.0, max(0.0, cos))
