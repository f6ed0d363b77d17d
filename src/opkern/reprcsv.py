"""CSV rows of float64 arrays, each value spelled as ``repr(float(v))``,
formatted by numpy a chunk of values at a time.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020): of the decimals that read back as v, the shortest, and of
those the one closest to v (ties to an even last digit), which is what
CPython's ``repr`` gives (David Gay's dtoa, mode 0).  Schubfach asks for a
17-digit candidate s >= 100 only to keep Java's two-digit minimum; without
that minimum the same steps give ``repr``'s digits for the 40 subnormals
with s < 100 too (|v| <= 20 * 2**-1074, checked one by one in the tests),
so every value takes the one vectorised path.

The layout follows CPython's ``'r'`` format (``PyOS_double_to_string`` with
``Py_DTSF_ADD_DOT_0``): with the digits d1 d2 ... and the decimal point
after decpt of them, exponent form ``d1.d2...e±XX`` (a sign and at least
two exponent digits) when decpt <= -4 or decpt > 16, positional otherwise,
with ``.0`` appended to an integer; ``nan`` (whatever its sign bit),
``inf``, ``-inf`` and ``-0.0`` as ``repr`` spells them.

Each value gets a 40-byte slot of five little-endian words: sign and
leading ``0.000``; three words of digits with the point put in by byte
masks; exponent and separator.  The words come from small tables by
(layout, sign, last in row); zeros, nan and inf take a single word and
skip the digits.  Unused bytes are NUL, and one ``bytes.translate`` per
chunk drops them.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["write_csv_rows"]

CHUNK = 4096  # values per pass; each scratch array stays far below 1 MB

_U64 = np.uint64
_LE64 = np.dtype("<u8")  # words whose bytes are text, first byte first
_M32 = _U64(2**32 - 1)
_M63 = _U64(2**63 - 1)
_INF = _U64(0x7FF0000000000000)  # magnitude bits of inf; above them, nan
_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the float64 range
_E_MIN, _E_MAX = -324, 308  # printed exponents
_P10 = np.array([10**i for i in range(18)], dtype=np.int64)
_NO_POINT = 17  # point position of digits printed without a point
_LEADS = ("", "0.", "0.0", "0.00", "0.000")


class _Tables(NamedTuple):
    g1: np.ndarray  # 126-bit powers of ten g(k) = g1 * 2**63 + g0
    g0: np.ndarray
    quads: np.ndarray  # the 4 characters of 0000..9999, little-endian u4
    heads: np.ndarray  # [lead * 2 + negative]: sign and _LEADS[lead]
    others: np.ndarray  # [(kind * 2 + negative) * 2 + last]: 0.0, nan, inf
    masks: np.ndarray  # (3, [(point - 1) * 18 + shown], 3 words)
    tails: np.ndarray  # [(e - E_MIN) * 2 + last]: "e±XX" and separator


def _flog2pow10(e):
    """floor(log2(10**e)); exact for |e| <= 1233."""
    return (e * 913124641741) >> 38


def _words(texts) -> np.ndarray:
    """Little-endian words holding each text, NUL-padded to 8 bytes."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), _LE64)


@functools.cache
def _tables() -> _Tables:
    """Built on the first export, not at import, mostly as Python bytes:
    large temporary arrays here would stay in the heap under the tables.

    ``masks`` holds, for the 24 digit bytes of a value whose point follows
    digit ``point`` and which shows ``shown`` digits, the byte masks of the
    digits before the point, of those after it (read one byte later), and
    the point itself.  The ``tails`` row past the last exponent has none.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        # 10**-k = beta * 2**r with 2**125 <= beta < 2**126; g = floor(beta) + 1
        r = _flog2pow10(-k) - 125
        if k > 0:
            beta = (1 << -r) // 10**k
        else:
            beta = 10**-k << -r if r < 0 else 10**-k >> r
        g.append(beta + 1)
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2")
    quads = np.empty((100, 100, 2), dtype="<u2")
    quads[:, :, 0] = pairs[:, None]
    quads[:, :, 1] = pairs
    masks = bytes(
        fill * rule(j, point, shown)
        for fill, rule in (
            (0xFF, lambda j, point, shown: j < point and j < shown),
            (0xFF, lambda j, point, shown: point < j <= shown),
            (ord("."), lambda j, point, shown: j == point < _NO_POINT),
        )
        for point in range(1, _NO_POINT + 1)
        for shown in range(18)
        for j in range(24)
    )
    exps = [f"e{e:+03d}" for e in range(_E_MIN, _E_MAX + 1)] + [""]
    return _Tables(
        g1=np.array([v >> 63 for v in g], dtype=_U64),
        g0=np.array([v & (2**63 - 1) for v in g], dtype=_U64),
        quads=quads.view("<u4").reshape(-1),
        heads=_words(s + lead for lead in _LEADS for s in ("", "-")),
        others=_words(
            t + sep
            for t in ("0.0", "-0.0", "nan", "nan", "inf", "-inf")
            for sep in (",", "\r\n")
        ),
        masks=np.frombuffer(masks, _LE64).reshape(3, -1, 3),
        tails=_words(e + sep for e in exps for sep in (",", "\r\n")),
    )


def _mulhi(a_lo, a_hi, b):
    """High 64 bits of the 128-bit product a * b, a given as 32-bit limbs."""
    b_lo, b_hi = b & _M32, b >> 32
    lo_hi = a_lo * b_hi
    hi_lo = a_hi * b_lo
    mid = (a_lo * b_lo >> 32) + (lo_hi & _M32) + (hi_lo & _M32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def _rop(g, cp):
    """floor(g * cp / 2**127) with the lost bits ORed into bit 0 (round to
    odd) for g = g1 * 2**63 + g0, given as (g1, g0 limbs, g1 limbs)
    (Schubfach's figure 8)."""
    g1, g0_limbs, g1_limbs = g
    z = (g1 * cp >> 1) + _mulhi(*g0_limbs, cp)
    return (_mulhi(*g1_limbs, cp) + (z >> 63)) | ((z & _M63) + _M63 >> 63)


def _shortest(bits: np.ndarray, tables: _Tables):
    """The shortest decimals d * 10**k that read back as the finite nonzero
    values with these IEEE bits, each the closest such to its value."""
    bq = (bits >> 52 & 0x7FF).astype(np.int64)
    t = bits & 2**52 - 1
    c = t | (bq > 0).astype(_U64) << 52
    q = np.maximum(bq, 1) - 1075  # v = c * 2**q
    irregular = (t == 0) & (bq > 1)  # v = 2**e: a narrower gap below it
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when irregular
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    g1, g0 = tables.g1[k - _K_MIN], tables.g0[k - _K_MIN]
    g = g1, (g0 & _M32, g0 >> 32), (g1 & _M32, g1 >> 32)
    cb = c << 2
    vb, vbl, vbr = (_rop(g, cp << h) for cp in (cb, cb - 2 + irregular, cb + 2))
    odd = c & 1  # an odd significand excludes the ends of the interval
    s = vb >> 2
    # a digit fewer, sp10 or tp10, where exactly one lies in the interval
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + odd <= sp10 << 2
    wpin = (tp10 << 2) + odd <= vbr
    # else s or s + 1: the one in the interval, else the closer, else the even
    uin = vbl + odd <= s << 2
    win = (s << 2) + 4 + odd <= vbr
    mid = (s << 2) + 2
    closer_s = (vb < mid) | ((vb == mid) & (s & 1 == 0))
    take_s = np.where(uin != win, uin, closer_s)
    d = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(take_s, s, s + 1))
    return d, k


def _chunk_text(x: np.ndarray, last: np.ndarray) -> str:
    """The CSV text of the float64 values x, each followed by "," or, where
    ``last``, by "\\r\\n".  One function, so that the scratch arrays are
    freed after the text is made: freed before, the heap gave their pages
    back and the next chunk ran about 40% slower on fresh pages."""
    tables = _tables()
    bits = x.view(_U64)
    magnitude = bits & _M63
    plain = (magnitude != 0) & (magnitude < _INF)
    slot = np.zeros((len(x), 5), dtype=_LE64)
    # zeros, nan and inf: one word, by kind (0, nan, inf), sign and last
    other = ~plain
    kind = (magnitude[other] > 0).astype(np.intp) + (magnitude[other] == _INF)
    negative = (bits[other] >> 63).astype(np.intp)
    slot[other, 0] = tables.others[(kind * 2 + negative) * 2 + last[other]]

    # the finite nonzero values
    bits, last = bits[plain], last[plain]
    m = len(bits)
    d, k = _shortest(bits, tables)
    d = d.view(np.int64)  # d < 10**17
    nlen = np.searchsorted(_P10, d, side="right")
    decpt = k + nlen

    # the 17 digits of d * 10**(17 - nlen), and the same one byte later
    aligned = d * _P10[17 - nlen]
    top = aligned // 10**16
    rest = aligned - top * 10**16
    hi = rest // 10**8
    lo = rest - hi * 10**8
    groups = np.empty((m, 4), dtype=np.intp)
    groups[:, 0] = hi // 10**4
    groups[:, 1] = hi - groups[:, 0] * 10**4
    groups[:, 2] = lo // 10**4
    groups[:, 3] = lo - groups[:, 2] * 10**4
    digits = np.zeros((m, 24), dtype=np.uint8)
    digits[:, 0] = top + ord("0")
    digits[:, 1:17] = tables.quads[groups].view(np.uint8).reshape(m, 16)
    shifted = np.zeros_like(digits)
    shifted[:, 1:18] = digits[:, :17]
    nd = 17 - np.argmax(digits[:, 16::-1] != ord("0"), axis=1)

    exp_form = (decpt < -3) | (decpt > 16)
    positional_point = np.where(decpt > 0, decpt, _NO_POINT)
    point = np.where(exp_form, np.where(nd > 1, 1, _NO_POINT), positional_point)
    shown = np.where(exp_form | (decpt <= 0), nd, np.maximum(nd, decpt + 1))
    lead = np.where(exp_form | (decpt > 0), 0, 1 - decpt)
    exp_row = np.where(exp_form, decpt - 1 - _E_MIN, _E_MAX - _E_MIN + 1)

    mask_row = (point - 1) * 18 + shown
    before, after, dot = (np.take(t, mask_row, axis=0) for t in tables.masks)
    before &= digits.view(_LE64)
    after &= shifted.view(_LE64)
    words = np.empty((m, 5), dtype=_LE64)
    words[:, 0] = tables.heads[lead * 2 + (bits >> 63).astype(np.intp)]
    words[:, 1:4] = before | after | dot
    words[:, 4] = tables.tails[exp_row * 2 + last]
    slot.view("V40")[plain, 0] = words.view("V40")[:, 0]  # whole slots at once
    return slot.tobytes().translate(None, b"\0").decode("ascii")


def write_csv_rows(fh, matrix: np.ndarray) -> None:
    """One CSV line per row of a 2-D float64 array, each value as
    ``repr(float(v))``, joined by "," and ended by "\\r\\n": the bytes
    csv.writer writes for those strings (none needs quoting).  The text
    goes to the text file ``fh`` a chunk of values at a time, so no string
    of the whole array is held."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        fh.write("\r\n" * len(matrix))
        return
    cols = matrix.shape[1]
    flat = matrix.flat
    for start in range(0, matrix.size, CHUNK):
        x = flat[start : start + CHUNK]
        last = np.arange(start, start + len(x)) % cols == cols - 1
        fh.write(_chunk_text(x, last))
