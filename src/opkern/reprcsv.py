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
masks; exponent and separator.  The 17 digits of d * 10**(17 - digits)
come four at a time from a table of ``0000``..``9999``, and the digits
shown without trailing zeros from the groups' trailing zeros.  The layout
depends only on decpt and the number of digits, so the words and masks
come from small tables by (decpt, sign), (decpt, digits) and (decpt, last
in row).  Zeros, nan and inf have rows of their own past the decpt rows:
their whole text in the first word, no digits, and the separator.  Unused
bytes are NUL, and one ``bytearray.translate`` per chunk drops them.

A write allocates its scratch once (``_Workspace``, sized by the smaller
of CHUNK and the array) and runs every chunk in it: each step writes into
an array of the workspace, so the loop allocates nothing but each chunk's
text.  Temporaries allocated per chunk were freed at the end of it; under
a pinned mmap threshold the heap then gave their pages back to the
operating system, and the next chunk faulted them in again.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["write_csv", "write_csv_rows"]

CHUNK = 4096  # values per pass; the workspace of a pass is about 1.2 MB

_U64 = np.uint64
_LE64 = np.dtype("<u8")  # words whose bytes are text, first byte first
_M32 = _U64(2**32 - 1)
_M63 = _U64(2**63 - 1)
_INF = _U64(0x7FF0000000000000)  # magnitude bits of inf; above them, nan
_ONE = _U64(0x3FF0000000000000)  # the bits of 1.0
_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the float64 range
_DECPTS = range(-323, 310)  # decpt of every finite nonzero float64
_SPECIAL = len(_DECPTS)  # the rows of 0.0, inf and nan come after them
_P10 = np.array([10**i for i in range(18)], dtype=np.int64)
_NO_POINT = 17  # point position of digits printed without a point
_DIGIT_AT = 3  # the byte of the first digit, after the "000" of its group
_NUL_QUAD = 10_000  # the entry of ``quads`` past 9999: four NULs
_LEADS = ("", "0.", "0.0", "0.00", "0.000")


class _Tables(NamedTuple):
    g1: np.ndarray  # 126-bit powers of ten g(k) = g1 * 2**63 + g0
    g0: np.ndarray
    quads: np.ndarray  # the 4 characters of 0000..9999, little-endian u4
    zeros: np.ndarray  # [group]: its trailing zero digits, 4 for 0000
    shown: np.ndarray  # [((z1 * 5 + z2) * 5 + z3) * 5 + z4]: digits shown
    heads: np.ndarray  # [row * 2 + negative]: sign and leading "0.000"
    layouts: np.ndarray  # [row * 18 + digits]: the row of ``masks``
    masks: np.ndarray  # (3, [(point - 1) * 18 + shown], 3 words)
    tails: np.ndarray  # [row * 2 + last]: "e±XX" and separator


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
    the point itself; digit j is byte j + _DIGIT_AT.  ``shown`` gives the
    digits of a 17-digit decimal without its trailing zeros, by the
    trailing zeros z1..z4 of its four last groups of four.  The other
    tables have a row per decpt in _DECPTS, then the rows of zeros, inf
    and nan, whose layout masks out every digit byte.
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
    quads = np.zeros(10_001, dtype="<u4")  # the last entry, _NUL_QUAD, NULs
    halves = quads[:10_000].view("<u2").reshape(100, 100, 2)
    halves[:, :, 0] = pairs[:, None]
    halves[:, :, 1] = pairs
    zeros = np.zeros(10_001, dtype=np.intp)
    for p in (10, 100, 1000, 10_000):
        zeros[:10_000:p] += 1
    kept = []
    for z in itertools.product(range(5), repeat=4):
        tz = 0
        for zj in reversed(z):  # z4, z3, ...: on while a group is all zeros
            tz += zj
            if zj < 4:
                break
        kept.append(17 - tz)
    masks = bytes(
        fill * rule(j - _DIGIT_AT, point, shown)
        for fill, rule in (
            (0xFF, lambda j, point, shown: 0 <= j < point and j < shown),
            (0xFF, lambda j, point, shown: point < j <= shown),
            (ord("."), lambda j, point, shown: j == point < _NO_POINT),
        )
        for point in range(1, _NO_POINT + 1)
        for shown in range(18)
        for j in range(24)
    )
    heads, tails = [], []
    layouts = np.full((_SPECIAL + 3, 18), (_NO_POINT - 1) * 18, dtype=np.intp)
    nd = np.arange(18)
    for row, decpt in enumerate(_DECPTS):
        if decpt < -3 or decpt > 16:  # exponent form
            lead, exp = "", f"e{decpt - 1:+03d}"
            layouts[row] = np.where(nd > 1, 0, _NO_POINT - 1) * 18 + nd
        else:
            lead, exp = _LEADS[max(1 - decpt, 0)], ""
            if decpt > 0:
                layouts[row] = (decpt - 1) * 18 + np.maximum(nd, decpt + 1)
            else:
                layouts[row] += nd
        heads += [lead, "-" + lead]
        tails += [exp + ",", exp + "\r\n"]
    for special in (("0.0", "-0.0"), ("inf", "-inf"), ("nan", "nan")):
        heads += special  # their layout shows no digit and no point
        tails += [",", "\r\n"]
    return _Tables(
        g1=np.array([v >> 63 for v in g], dtype=_U64),
        g0=np.array([v & (2**63 - 1) for v in g], dtype=_U64),
        quads=quads,
        zeros=zeros,
        shown=np.array(kept, dtype=np.intp),
        heads=_words(heads),
        layouts=layouts.reshape(-1),
        masks=np.frombuffer(masks, _LE64).reshape(3, -1, 3),
        tails=_words(tails),
    )


_SLOT = np.dtype([("head", _LE64), ("digits", "V24"), ("tail", _LE64)])


# Rows of a workspace's ``words``: values, last, two rows of flags, then
# magnitude, sign, d and k; from _STAGE on, rows that _shortest uses and the
# digit stage of _chunk_text uses again once _shortest is done with them.
_STAGE = 8
_WORDS = _STAGE + 23


@dataclass(frozen=True, eq=False)
class _Workspace:
    """The scratch of one ``write_csv_rows`` call, for chunks of up to m
    values: every array a chunk's text is made in, reused by every chunk.

    ``text`` holds the m 40-byte slots; ``slot`` views them as (m, 5)
    words and ``fields`` as head, digits and tail.  Everything else is a
    view of ``words``, one (_WORDS, m) uint64 block: its rows are named
    where they are used, and the digit stage reuses the rows of _shortest,
    so the workspace holds about 290 bytes per value with the text.
    """

    text: bytearray
    slot: np.ndarray
    fields: np.ndarray
    words: np.ndarray
    values: np.ndarray  # the padded last chunk
    last: np.ndarray  # intp: 1 for the last value of a row, else 0
    flags: np.ndarray  # (16, m) bool


def _workspace(m: int) -> _Workspace:
    text = bytearray(40 * m)
    words = np.zeros((_WORDS, m), dtype=_U64)
    return _Workspace(
        text=text,
        slot=np.frombuffer(text, _LE64).reshape(m, 5),
        fields=np.frombuffer(text, _SLOT),
        words=words,
        values=words[0].view(np.float64),
        last=words[1].view(np.intp),
        flags=words[2:4].view(bool).reshape(16, m),
    )


def _mulhi(a_lo, a_hi, b_lo, b_hi, out, t, u):
    """out = the high 64 bits of the 128-bit product a * b, both given as
    32-bit limbs; t and u are scratch.  No partial sum overflows 64 bits."""
    np.multiply(a_lo, b_lo, out=t)
    t >>= 32
    np.multiply(a_hi, b_lo, out=u)
    u += t
    np.bitwise_and(u, _M32, out=t)
    np.multiply(a_lo, b_hi, out=out)
    t += out  # the middle 64 bits, less the carry out of u
    u >>= 32
    t >>= 32
    np.multiply(a_hi, b_hi, out=out)
    out += u
    out += t


def _rop(g, cp, out, scratch):
    """out = floor(g * cp / 2**127) with the lost bits ORed into bit 0
    (round to odd) for g = g1 * 2**63 + g0, given as (g1, g0 limbs, g1
    limbs) (Schubfach's figure 8)."""
    g1, g0_lo, g0_hi, g1_lo, g1_hi = g
    b_lo, b_hi, z, t1, t2 = scratch
    np.bitwise_and(cp, _M32, out=b_lo)
    np.right_shift(cp, 32, out=b_hi)
    _mulhi(g0_lo, g0_hi, b_lo, b_hi, z, t1, t2)
    np.multiply(g1, cp, out=t1)
    t1 >>= 1
    z += t1  # g1 * cp / 2 + g0 * cp / 2**64, carry in bit 63
    _mulhi(g1_lo, g1_hi, b_lo, b_hi, out, t1, t2)
    np.right_shift(z, 63, out=t1)
    out += t1
    z &= _M63
    z += _M63
    z >>= 63
    out |= z


def _shortest(bits, tables: _Tables, d, k, words, flags) -> None:
    """d * 10**k: the shortest decimals that read back as the finite
    nonzero values with these IEEE bits, each the closest such to its
    value (k as int64)."""
    c, cb, h, cp, irregular, g1, g0_lo, g0_hi, g1_lo, g1_hi, vb, vbl, vbr, *scratch = words
    e, t, g0 = scratch[:3]  # done with before the first _rop takes the scratch
    f, f2 = flags[:2]
    ki, hi, q = k.view(np.int64), h.view(np.int64), cb.view(np.int64)
    np.right_shift(bits, 52, out=e)
    e &= 0x7FF
    np.bitwise_and(bits, 2**52 - 1, out=t)
    np.minimum(e, 1, out=c)
    c <<= 52
    c |= t
    np.maximum(e, 1, out=cb)
    q -= 1075  # v = c * 2**q
    np.equal(t, 0, out=f)  # v = 2**e: a narrower gap below it
    np.greater(e, 1, out=f2)
    f &= f2
    np.copyto(irregular, f)
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when irregular
    np.multiply(irregular, 274743187321, out=t)
    np.multiply(q, 661971961083, out=ki)
    ki -= t.view(np.int64)
    ki >>= 41
    np.multiply(ki, -913124641741, out=hi)  # floor(log2(10**-k))
    hi >>= 38
    hi += q
    hi += 2
    index = t.view(np.intp)
    np.subtract(ki, _K_MIN, out=index)
    np.take(tables.g1, index, out=g1, mode="clip")
    np.take(tables.g0, index, out=g0, mode="clip")
    np.bitwise_and(g0, _M32, out=g0_lo)
    np.right_shift(g0, 32, out=g0_hi)
    np.bitwise_and(g1, _M32, out=g1_lo)
    np.right_shift(g1, 32, out=g1_hi)
    g = g1, g0_lo, g0_hi, g1_lo, g1_hi
    np.left_shift(c, 2, out=cb)
    np.left_shift(cb, h, out=cp)
    _rop(g, cp, vb, scratch)
    np.subtract(cb, 2, out=cp)
    cp += irregular
    cp <<= h
    _rop(g, cp, vbl, scratch)
    np.add(cb, 2, out=cp)
    cp <<= h
    _rop(g, cp, vbr, scratch)

    odd, s, sp10, tp10, s4, tmp = g0, g1, g0_lo, g0_hi, g1_lo, g1_hi
    upin, wpin, uin, win, take_s, f = flags[:6]
    np.bitwise_and(c, 1, out=odd)  # an odd significand excludes the ends of the interval
    vbl += odd
    np.right_shift(vb, 2, out=s)
    # a digit fewer, sp10 or tp10, where exactly one lies in the interval
    np.floor_divide(s, 10, out=sp10)
    sp10 *= 10
    np.add(sp10, 10, out=tp10)
    np.left_shift(sp10, 2, out=tmp)
    np.less_equal(vbl, tmp, out=upin)
    np.left_shift(tp10, 2, out=tmp)
    tmp += odd
    np.less_equal(tmp, vbr, out=wpin)
    # else s or s + 1: the one in the interval, else the closer, else the even
    np.left_shift(s, 2, out=s4)
    np.less_equal(vbl, s4, out=uin)
    np.add(s4, 4, out=tmp)
    tmp += odd
    np.less_equal(tmp, vbr, out=win)
    s4 += 2  # the midpoint
    closer = take_s
    np.equal(vb, s4, out=closer)
    np.bitwise_and(s, 1, out=tmp)
    np.equal(tmp, 0, out=f)
    closer &= f
    np.less(vb, s4, out=f)
    closer |= f
    np.not_equal(uin, win, out=f)
    uin &= f
    np.logical_not(f, out=f)
    closer &= f
    np.logical_or(uin, closer, out=take_s)
    np.copyto(tmp, take_s)
    np.add(s, 1, out=d)
    d -= tmp  # s + 1, less one where s is taken
    # where exactly one is in: d + (sp10 or tp10 - d), as 0/1 * (tp10 - 10 * upin - d)
    one, pick = s4, tmp
    np.not_equal(upin, wpin, out=f)
    np.copyto(one, f)
    np.copyto(pick, upin)
    pick *= 10
    np.subtract(tp10, pick, out=pick)
    pick -= d
    pick *= one
    d += pick


def _chunk_text(x: np.ndarray, ws: _Workspace) -> None:
    """Fill ``ws.text`` with the CSV text of the float64 values x, each
    followed by "," or, where ``ws.last`` is 1, by "\\r\\n".  Every step
    writes into ``ws``; the unused bytes are NUL."""
    tables = _tables()
    m = len(x)
    bits = x.view(_U64)
    words = ws.words
    magnitude, negative, d, k = words[_STAGE - 4 : _STAGE]
    other, special, nan, *flags = ws.flags[:9]
    count = ws.flags[9].view(np.uint8)
    np.bitwise_and(bits, _M63, out=magnitude)
    np.right_shift(bits, 63, out=negative)
    np.greater_equal(magnitude, _INF, out=special)
    np.greater(magnitude, _INF, out=nan)
    np.equal(magnitude, 0, out=other)
    other |= special

    # the digits of the finite nonzero values, and of 1.0 in place of the others
    plain = words[_STAGE]
    np.copyto(plain, bits)
    np.putmask(plain, other, _ONE)
    _shortest(plain, tables, d, k, words[_STAGE + 1 : _STAGE + 19], flags)

    # the digit stage: registers, then 2-D arrays over the rows _shortest
    # has finished with ((6, m) words read as (m, 6), and so on)
    row, lower, index, aligned, hi, nd, layout, word = words[_STAGE : _STAGE + 8].view(np.intp)
    at = _STAGE + 8
    groups = words[at : at + 6].view(np.intp).reshape(m, 6)
    powers = words[at : at + 2].view(bool).reshape(16, m)  # before groups
    zeros = words[at + 6 : at + 12].view(np.intp).reshape(m, 6)  # before digits
    digits = words[at + 6 : at + 9].reshape(m, 3)
    shifted = words[at + 9 : at + 12].reshape(m, 3)
    mask = words[at + 12 : at + 15].reshape(m, 3)

    di, ki = d.view(np.int64), k.view(np.int64)  # d < 10**17
    np.greater_equal(di, _P10[1:17, None], out=powers)
    np.add.reduce(powers.view(np.uint8), axis=0, out=count)
    np.copyto(lower, count)  # the digits of d, less one
    np.subtract(16, lower, out=index)
    np.add(ki, lower, out=row)
    row += 1 - _DECPTS.start  # the row of decpt = k + digits
    np.add(special.view(np.uint8), nan.view(np.uint8), out=count)
    np.copyto(lower, count)  # 0 for zeros, 1 for inf, 2 for nan
    lower += _SPECIAL
    np.putmask(row, other, lower)

    # the 17 digits of d * 10**(17 - digits): the first, then four groups
    # of four, as the characters "000d", "dddd", ..., "dddd", NULs
    np.take(_P10, index, out=aligned, mode="clip")
    aligned *= di
    np.divmod(aligned, 10**16, out=(groups[:, 0], aligned))
    np.divmod(aligned, 10**8, out=(hi, aligned))
    np.divmod(hi, 10**4, out=(groups[:, 1], groups[:, 2]))
    np.divmod(aligned, 10**4, out=(groups[:, 3], groups[:, 4]))
    groups[:, 5] = _NUL_QUAD
    np.take(tables.zeros, groups, out=zeros, mode="clip")
    np.multiply(zeros[:, 1], 5, out=index)
    index += zeros[:, 2]
    index *= 5
    index += zeros[:, 3]
    index *= 5
    index += zeros[:, 4]
    np.take(tables.shown, index, out=nd, mode="clip")
    np.take(tables.quads, groups, out=digits.view("<u4"), mode="clip")
    # each row ends in NULs, so one shift of all the bytes shifts every row;
    # the first byte is never shown
    np.copyto(shifted.view(np.uint8).reshape(-1)[1:], digits.view(np.uint8).reshape(-1)[:-1])

    np.multiply(row, 18, out=index)
    index += nd
    np.take(tables.layouts, index, out=layout, mode="clip")
    before, after, dot = tables.masks
    np.take(before, layout, axis=0, out=mask, mode="clip")
    digits &= mask
    np.take(after, layout, axis=0, out=mask, mode="clip")
    shifted &= mask
    digits |= shifted
    np.take(dot, layout, axis=0, out=mask, mode="clip")
    digits |= mask
    fields = ws.fields
    np.copyto(fields["digits"], digits.view("V24")[:, 0])
    word = word.view(_U64)
    np.multiply(row, 2, out=index)
    index += negative.view(np.intp)
    np.take(tables.heads, index, out=word, mode="clip")
    np.copyto(fields["head"], word)
    np.multiply(row, 2, out=index)
    index += ws.last
    np.take(tables.tails, index, out=word, mode="clip")
    np.copyto(fields["tail"], word)


def write_csv_rows(fh, matrix: np.ndarray) -> None:
    """One CSV line per row of a 2-D float64 array, each value as
    ``repr(float(v))``, joined by "," and ended by "\\r\\n": the bytes
    csv.writer writes for those strings (none needs quoting).  The ASCII
    text goes to the binary file ``fh`` a chunk of values at a time, so no
    text of the whole array is held; the chunks run in one workspace,
    sized by the smaller of CHUNK and the array.  An array that is not
    C-contiguous is copied once."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        fh.write(b"\r\n" * len(matrix))
        return
    cols = matrix.shape[1]
    flat = matrix.reshape(-1)
    ws = _workspace(min(CHUNK, flat.size))
    m, last = len(ws.values), ws.last
    for start in range(0, flat.size, m):
        x = flat[start : start + m]
        used = len(x)
        if used < m:  # the short last chunk, padded with zeros
            ws.values[:used] = x
            ws.values[used:] = 0.0
            x = ws.values
        last.fill(0)
        last[(cols - 1 - start) % cols :: cols] = 1
        _chunk_text(x, ws)
        ws.slot[used:] = 0  # the padding's slots
        fh.write(ws.text.translate(None, b"\0"))


def write_csv(path, header: list, matrix: np.ndarray) -> None:
    """The CSV file ``path``: one ``header`` row as csv.writer writes it,
    then the rows of ``matrix`` (see ``write_csv_rows``)."""
    line = io.StringIO(newline="")
    csv.writer(line).writerow(header)
    with open(path, "wb") as fh:
        fh.write(line.getvalue().encode())
        write_csv_rows(fh, matrix)
