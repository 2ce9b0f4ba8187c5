"""String-similarity primitives for column-name and row-value matching.

Everything in this module is deterministic and self-contained: no model
downloads and no network.  The only global state is the default provider
instance and two bounded memos that never change a result: each
:class:`TrigramProvider` keeps the vectors it has embedded together with
their norms, and :func:`token_set` keeps token sets.  Column matching
scores every pair over a few dozen distinct names, so each name is
embedded and tokenised once.  :func:`gestalt_ratio` runs its own
Ratcliff/Obershelp block matching with str substring search; difflib is
not used.

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
    "token_sort_best",
    "token_sort_matrix",
    "token_sort_ratio",
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

    Each window of ``a`` and ``b`` finds its longest block by a grow-and-slide
    scan: while ``a[i:i + k]`` occurs in the window of ``b``, it is the best
    block so far and ``k`` grows by one; otherwise no block of length ``k``
    starts at ``i`` and ``i`` moves on.  So the scan ends on the longest
    length with the first ``i`` that has a block of it, and ``str.find``
    gives that block's first position in ``b``.  Without junk, difflib's
    block extension never fires, and its sort and merging of adjacent blocks
    do not change the sum, so all three are left out.
    """
    a = a.lower()
    b = b.lower()
    total = len(a) + len(b)
    if not total:
        return 1.0
    matched = 0
    queue = [(0, len(a), 0, len(b))]
    while queue:
        alo, ahi, blo, bhi = queue.pop()
        window = b[blo:bhi]
        besti = size = 0
        i, k = alo, 1
        while i + k <= ahi:
            if a[i : i + k] in window:
                besti, size = i, k
                k += 1
            else:
                i += 1
        if size:
            matched += size
            bestj = blo + window.find(a[besti : besti + size])
            if alo < besti and blo < bestj:
                queue.append((alo, besti, blo, bestj))
            if besti + size < ahi and bestj + size < bhi:
                queue.append((besti + size, ahi, bestj + size, bhi))
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


# Packed uint64 words (one or more left patterns each) advanced together by
# ``similarity_matrix``.  A block of right strings holds ``_LANE_BLOCK //
# words`` of them, so each temporary of the recurrence has at most this many
# words, whatever the size of the output.  Above this many words, each
# temporary is one row of ``words`` words.  The ratios read out of a block
# take one float per pattern in it.
_LANE_BLOCK = 4096
_LANE_BITS = 64


def similarity_matrix(left_forms: Sequence[str], right_forms: Sequence[str]) -> np.ndarray:
    """``indel_ratio`` of every left × right pair, as an ``(L, R)`` array.

    It runs the bit-parallel LCS recurrence of :func:`lcs_length` with the
    left strings as bit patterns (Hyyrö, "Bit-parallel LCS-length
    computation revisited", 2004), several patterns to a uint64 word
    (Hyyrö, Fredriksson & Navarro, "Increased bit-parallelism for
    approximate and multiple string matching", ACM JEA 2005).  A word holds
    ``per_word`` fields of ``64 // per_word`` bits, as many as fit the
    longest left string plus one bit.  Each pattern sits in the low bits of
    its field.  The top bit of each field is a guard: it is 0 before every
    addition, takes any carry out of the field, and is cleared after each
    step, so no carry reaches the next pattern.  With one pattern to a word
    (a left string of 32 or more characters) there is no guard: a carry
    runs into bits above the pattern, which stay set, or off the word.

    Each step advances a word by one character of one right string.  Right
    strings run longest first, so the words still running at step ``t``
    are a prefix of the block, and no step is spent on padding.  Characters
    no left string has get index 0, whose mask is empty.  Left strings over
    64 characters take their row from :func:`indel_ratio` instead.
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

    lefts = [left_forms[i] for i in short]
    left_len = np.array([len(s) for s in lefts])
    per_word = max(1, _LANE_BITS // (max(map(len, lefts)) + 1))
    width = _LANE_BITS // per_word
    guard = 0 if per_word == 1 else 1 << (width - 1)
    field = np.uint64((1 << width) - 1 - guard)
    live = np.uint64(sum(int(field) << (f * width) for f in range(per_word)))

    # Code k >= 1 is the character alphabet[k - 1]; code 0 is every
    # character no left string has.  The last entry, past every code point,
    # is no character.
    alphabet = np.array(sorted(map(ord, set("".join(lefts)))) + [0x110000], dtype=np.uint32)
    words = -(-len(lefts) // per_word)
    mask_table = np.zeros((len(alphabet), words), dtype=np.uint64)
    which, pos = _spread(left_len)
    word, slot = np.divmod(which, per_word)
    bits = np.left_shift(np.uint64(1), (slot * width + pos).astype(np.uint64))
    left_codes = np.searchsorted(alphabet, _code_points(lefts)) + 1
    np.bitwise_or.at(mask_table, (left_codes, word), bits)

    # Right strings longest first; codes[t, j] is the code of character t.
    order = np.argsort([-len(s) for s in right_forms], kind="stable")
    right_len = np.array([len(right_forms[j]) for j in order])
    points = _code_points([right_forms[j] for j in order])
    found = np.searchsorted(alphabet, points)
    col, pos = _spread(right_len)
    codes = np.zeros((right_len[0], len(order)), dtype=np.intp)
    codes[pos, col] = np.where(alphabet[found] == points, found + 1, 0)
    rows = np.array(short)

    right_block = max(1, _LANE_BLOCK // words)
    v = np.empty((right_block, words), dtype=np.uint64)
    u = np.empty_like(v)
    w = np.empty_like(v)
    lcs = np.empty((right_block, words, per_word), dtype=np.uint8)
    for r0 in range(0, len(order), right_block):
        r1 = min(r0 + right_block, len(order))
        lens = right_len[r0:r1]
        # running[t]: how many of these right strings have a character t.
        running = np.searchsorted(-lens, -np.arange(lens[0]), side="left")
        vk, uk, wk = v[: r1 - r0], u[: r1 - r0], w[: r1 - r0]
        vk.fill(live)
        for t, k in enumerate(running.tolist()):
            if k < len(vk):
                vk, uk, wk = vk[:k], uk[:k], wk[:k]
            # Every code is in range; "clip" lets take write into uk unbuffered.
            mask_table.take(codes[t, r0 : r0 + k], axis=0, out=uk, mode="clip")
            uk &= vk
            np.subtract(vk, uk, out=wk)
            vk += uk
            vk |= wk
            if guard:
                vk &= live
        # Inverted, the bits of each field below its guard count its LCS.
        vb, ub = v[: r1 - r0], u[: r1 - r0]
        np.invert(vb, out=vb)
        for f in range(per_word):
            np.right_shift(vb, np.uint64(f * width), out=ub)
            ub &= field
            np.bitwise_count(ub, out=lcs[: r1 - r0, :, f])
        # Field f of word j holds left string j * per_word + f.
        counts = lcs[: r1 - r0].reshape(r1 - r0, -1)[:, : len(lefts)].T
        total = left_len[:, None] + lens
        empty = total == 0
        ratio = np.multiply(counts, 2.0)
        ratio /= np.maximum(total, 1, out=total)
        ratio[empty] = 1.0
        out[np.ix_(rows, order[r0:r1])] = ratio
    return out


def _code_points(strings: Sequence[str]) -> np.ndarray:
    """The code points of ``strings``, concatenated, as uint32."""
    text = "".join(strings).encode("utf-32-le", "surrogatepass")
    return np.frombuffer(text, dtype=np.uint32)


def _spread(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each character of strings of ``lengths``, concatenated: its
    string's index and its position in that string."""
    which = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return which, np.arange(len(which)) - starts


def sorted_token_form(text: str) -> str:
    """Normalize, split on whitespace, sort tokens, re-join with spaces."""
    return " ".join(sorted(normalize(text).split()))


def token_sort_ratio(a: str, b: str) -> float:
    """Indel similarity of the sorted-token forms of ``a`` and ``b``.

    Word order does not matter: ``"John Smith"`` vs ``"Smith John"`` is 1.0.
    """
    return indel_ratio(sorted_token_form(a), sorted_token_form(b))


def token_sort_matrix(lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
    """``token_sort_ratio`` of every left × right pair, as an ``(L, R)`` array."""
    return similarity_matrix(
        [sorted_token_form(v) for v in lefts], [sorted_token_form(v) for v in rights]
    )


def token_sort_best(lefts: Sequence[str], rights: Sequence[str]) -> tuple[list[int], list[float]]:
    """For each left value, the index of its first best right value and that
    score: the row-wise ``argmax`` and ``max`` of :func:`token_sort_matrix`.

    It runs exact first (Wang, Li & Feng, "Fast-Join", ICDE 2011).  A pair
    scores 1.0 exactly when its two sorted-token forms are equal, because
    ``2 * LCS == |a| + |b|`` only for equal strings; two empty forms are
    equal too.  So a left value whose form some right value has takes the
    smallest such index and 1.0 from a hash map, and only the other left
    values go through :func:`similarity_matrix`, against every right form.
    ``rights`` must not be empty.
    """
    if not rights:
        raise ValueError("token_sort_best needs at least one right value")
    right_forms = [sorted_token_form(v) for v in rights]
    first_index: dict[str, int] = {}
    for j, form in enumerate(right_forms):
        first_index.setdefault(form, j)
    best = [0] * len(lefts)
    scores = [1.0] * len(lefts)
    rest: list[int] = []
    rest_forms: list[str] = []
    for i, value in enumerate(lefts):
        form = sorted_token_form(value)
        j = first_index.get(form)
        if j is None:
            rest.append(i)
            rest_forms.append(form)
        else:
            best[i] = j
    if rest:
        sims = similarity_matrix(rest_forms, right_forms)
        for i, j, score in zip(rest, sims.argmax(axis=1).tolist(), sims.max(axis=1).tolist()):
            best[i] = j
            scores[i] = score
    return best, scores


# Most entries each memo in this module holds: far more distinct column
# names than a catalog has, and a bound on memory for a long-lived process
# that scores many catalogs.
_MEMO_LIMIT = 4096


@functools.lru_cache(maxsize=_MEMO_LIMIT)
def token_set(text: str) -> frozenset[str]:
    """Tokens of ``text``, splitting on non-alphanumerics and camelCase."""
    return frozenset(normalize(_CAMEL_BOUNDARY.sub(" ", text)).split())


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
