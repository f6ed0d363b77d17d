"""CSV rows of float64 arrays, each value spelled as ``repr(float(v))``,
formatted by numpy a batch of values at a time.

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
in row).  Unused bytes are NUL, and one ``bytearray.translate`` per
window drops them.

Only the finite nonzero values have digits.  The array is written a
window of CHUNK values at a time, and the values of each window are first
told apart by their bits.  A window whose values all have digits is
formatted where it lies.  Otherwise the values with digits of as many
windows in a row as CHUNK holds are gathered into one batch and formatted
together; then each of those windows takes the whole slot of each zero
(of either sign), inf and nan from a table of twelve slots, by kind, sign
and separator, and the formatted slots fill the rest.  In the Gram of a
kernel that is diagonal in a fixed basis of H, (d - 1)/d of the values
are exact zeros, and none of them enters the digit stage.

A write allocates its scratch once (``_Workspace``, sized by the smaller
of CHUNK and the array) and runs every window and batch in it: each step
writes into an array of the workspace, and the positions of a window's
values with digits are found in its rows too (ranks by a cumulative sum,
then one ``np.put``), so the loop allocates nothing but each window's
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

CHUNK = 4096  # values per window and per batch; the workspace is about 1.1 MB

_U64 = np.uint64
_LE64 = np.dtype("<u8")  # words whose bytes are text, first byte first
_M32 = _U64(2**32 - 1)
_M63 = _U64(2**63 - 1)
_INF = _U64(0x7FF0000000000000)  # magnitude bits of inf; above them, nan
_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the float64 range
_DECPTS = range(-323, 310)  # decpt of every finite nonzero float64
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
    specials: np.ndarray  # [(kind * 2 + negative) * 2 + last]: the slot of 0.0, inf or nan
    ramp: np.ndarray  # 0, 1, ..., CHUNK - 1


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
    tables have a row per decpt in _DECPTS, but ``specials``: the whole
    40-byte slots of the values without digits, by kind (0.0, inf, nan),
    sign and separator.
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
    layouts = np.full((len(_DECPTS), 18), (_NO_POINT - 1) * 18, dtype=np.intp)
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
    specials = np.zeros((12, 5), dtype=_U64)  # the whole text in the first word
    specials[:, 0] = _words(
        text + end for text in ("0.0", "-0.0", "inf", "-inf", "nan", "nan") for end in (",", "\r\n")
    )
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
        specials=specials.view("V40")[:, 0],
        ramp=np.arange(CHUNK),
    )


_SLOT = np.dtype([("head", _LE64), ("digits", "V24"), ("tail", _LE64)])


# Rows of a batch's (_WORDS, n) scratch: values, last, a row of flags, then
# sign, d and k; from _STAGE on, rows that _shortest uses and the digit stage
# of _chunk_text uses again once _shortest is done with them.  The digit
# stage is done with its groups, rows _TEXT on, before it writes the text,
# so a batch's text can go there.
_STAGE = 6
_TEXT = _STAGE + 8
_WORDS = _STAGE + 23
_SORT = _WORDS - 5  # from this row of m words on: a window's values told apart


@dataclass(frozen=True, eq=False)
class _Workspace:
    """The scratch of one ``write_csv_rows`` call, for windows of up to m
    values: every array a window's text is made in, reused by every window.

    ``text`` holds the m 40-byte slots of a window; ``slot`` views them as
    (m, 5) words, ``fields`` as head, digits and tail, and ``slots`` as
    whole slots.  ``block`` holds _WORDS * m words.  A batch of n values
    is formatted in its first _WORDS * n, as (_WORDS, n) rows (``rows``),
    and the rows of _shortest are reused by the digit stage, so the
    workspace holds about 270 bytes per value with the text.  The views
    below are the last five of its rows of m words, where a window's
    values are told apart by their bits; what a batch of n <= m values
    keeps while they are in use, its values and ``last`` (the first 2 * n
    words) and its text (from _TEXT * n to (_TEXT + 5) * n), lies before
    them.
    """

    text: bytearray
    slot: np.ndarray
    fields: np.ndarray
    slots: np.ndarray
    block: np.ndarray
    magnitude: np.ndarray  # the bits less the sign
    spare: np.ndarray  # uint64
    index: np.ndarray  # intp
    pos: np.ndarray  # intp
    flags: np.ndarray  # (8, m) bool: has digits, then _specials' flags

    def rows(self, n: int) -> np.ndarray:
        return self.block[: _WORDS * n].reshape(_WORDS, n)


def _workspace(m: int) -> _Workspace:
    text = bytearray(40 * m)
    block = np.zeros(_WORDS * m, dtype=_U64)
    sort = block[_SORT * m :].reshape(5, m)
    return _Workspace(
        text=text,
        slot=np.frombuffer(text, _LE64).reshape(m, 5),
        fields=np.frombuffer(text, _SLOT),
        slots=np.frombuffer(text, "V40"),
        block=block,
        magnitude=sort[0],
        spare=sort[1],
        index=sort[2].view(np.intp),
        pos=sort[3].view(np.intp),
        flags=sort[4].view(bool).reshape(8, m),
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


def _chunk_text(x: np.ndarray, words: np.ndarray, fields: np.ndarray) -> None:
    """Fill ``fields`` with the CSV text of the finite nonzero float64
    values x, each followed by "," or, where the ``last`` row of ``words``
    is 1, by "\\r\\n".  Every step writes into ``words``, the (_WORDS,
    len(x)) scratch of the batch; the unused bytes are NUL."""
    tables = _tables()
    m = len(x)
    bits = x.view(_U64)
    last = words[1].view(np.intp)
    flags = words[2].view(bool).reshape(8, m)
    negative, d, k = words[_STAGE - 3 : _STAGE]
    count = flags[6].view(np.uint8)
    np.right_shift(bits, 63, out=negative)
    _shortest(bits, tables, d, k, words[_STAGE : _STAGE + 18], flags)

    # the digit stage: registers, then 2-D arrays over the rows _shortest
    # has finished with ((6, m) words read as (m, 6), and so on)
    row, lower, index, aligned, hi, nd, layout, word = words[_STAGE:_TEXT].view(np.intp)
    at = _TEXT
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
    np.copyto(fields["digits"], digits.view("V24")[:, 0])
    word = word.view(_U64)
    np.multiply(row, 2, out=index)
    index += negative.view(np.intp)
    np.take(tables.heads, index, out=word, mode="clip")
    np.copyto(fields["head"], word)
    np.multiply(row, 2, out=index)
    index += last
    np.take(tables.tails, index, out=word, mode="clip")
    np.copyto(fields["tail"], word)


def _classify(x: np.ndarray, ws: _Workspace) -> int:
    """How many of the values x have digits (are finite and nonzero).  They
    are marked in ``ws.flags[0]``, and ``ws.magnitude`` keeps the bits of
    every value less the sign."""
    w = len(x)
    magnitude, below, digital = ws.magnitude[:w], ws.spare[:w], ws.flags[0, :w]
    np.bitwise_and(x.view(_U64), _M63, out=magnitude)
    np.subtract(magnitude, 1, out=below)  # 0 wraps round to 2**64 - 1
    np.less(below, _INF - 1, out=digital)
    return int(np.count_nonzero(digital))


def _row_ends(start: int, cols: int) -> slice:
    """The values that end a row, in a window from ``start`` of the
    flattened array."""
    return slice((cols - 1 - start) % cols, None, cols)


def _gather(x: np.ndarray, ends: slice, ws: _Workspace, values, last) -> None:
    """Copy the values of x that have digits, as _classify marked them, to
    ``values``, and to ``last`` 1 for each that ends a row, else 0."""
    w, held = len(x), len(values)
    digital, rank, pos = ws.flags[0, :w], ws.index[:w], ws.pos[:w]
    # the positions of the values with digits, without a temporary: each
    # puts its own position at its rank among them, and every other value
    # puts its position at -1, which wraps round to w - 1: the rank of a
    # value with digits only when every value has them, and then no other
    # value puts anything there
    np.copyto(pos, digital)
    np.cumsum(pos, out=rank)
    rank *= pos
    rank -= 1
    np.put(pos, rank, _tables().ramp[:w], mode="wrap")
    np.take(x, pos[:held], out=values, mode="clip")
    ended = ws.spare[:w].view(np.intp)
    ended.fill(0)
    ended[ends] = 1
    np.take(ended, pos[:held], out=last, mode="clip")


def _specials(x: np.ndarray, ends: slice, ws: _Workspace) -> None:
    """Fill the first len(x) slots of ``ws.text`` with the slots of 0.0,
    inf or nan by each value's kind, sign and separator; the slots of the
    values with digits are written over after."""
    w = len(x)
    magnitude, sign, index = ws.magnitude[:w], ws.spare[:w], ws.index[:w]
    infinite, nan = ws.flags[1, :w], ws.flags[2, :w]
    kind = ws.flags[3, :w].view(np.uint8)
    np.greater_equal(magnitude, _INF, out=infinite)
    np.greater(magnitude, _INF, out=nan)
    np.add(infinite.view(np.uint8), nan.view(np.uint8), out=kind)  # 0.0, inf, nan
    np.copyto(index, kind)
    np.right_shift(x.view(_U64), 63, out=sign)
    index <<= 1
    index += sign.view(np.intp)
    index <<= 1
    index[ends] += 1
    np.take(_tables().specials, index, out=ws.slots[:w], mode="clip")


def _write(fh, ws: _Workspace, used: int) -> None:
    """Write the text of the first ``used`` slots."""
    ws.slot[used:] = 0
    fh.write(ws.text.translate(None, b"\0"))


def _write_batch(fh, flat: np.ndarray, starts, held: int, cols: int, ws: _Workspace) -> None:
    """Write the windows of ``flat`` at ``starts``, whose ``held`` values
    with digits make one batch: gather those values, format them, then
    give each window the slots of its values without digits and put its
    formatted ones in their places."""
    m = len(ws.slots)
    words = ws.rows(held)
    values, last = words[0].view(np.float64), words[1].view(np.intp)
    text = ws.block[_TEXT * held : (_TEXT + 5) * held]
    done = 0
    for start in starts:
        x = flat[start : start + m]
        count = _classify(x, ws)
        _gather(x, _row_ends(start, cols), ws, values[done : done + count], last[done : done + count])
        done += count
    if held:
        _chunk_text(values, words, text.view(_SLOT))
    batch = text.view("V40")
    done = 0
    for start in starts:
        x = flat[start : start + m]
        count = _classify(x, ws)
        _specials(x, _row_ends(start, cols), ws)
        if count:
            np.place(ws.slots[: len(x)], ws.flags[0, : len(x)], batch[done : done + count])
        done += count
        _write(fh, ws, len(x))


def write_csv_rows(fh, matrix: np.ndarray) -> None:
    """One CSV line per row of a 2-D float64 array, each value as
    ``repr(float(v))``, joined by "," and ended by "\\r\\n": the bytes
    csv.writer writes for those strings (none needs quoting).  The ASCII
    text goes to the binary file ``fh`` a window of values at a time, so
    no text of the whole array is held; the windows run in one workspace,
    sized by the smaller of CHUNK and the array.  A window whose values
    all have digits is formatted where it lies.  Otherwise the values with
    digits of as many windows in a row as fit CHUNK are formatted as one
    batch, and the zeros, infs and nans of each window take their text
    from a table.  An array that is not C-contiguous is copied once."""
    if np.ndim(matrix) != 2:
        raise ValueError(f"CSV rows need a 2-D array, not one of shape {np.shape(matrix)}")
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        fh.write(b"\r\n" * len(matrix))
        return
    cols = matrix.shape[1]
    flat = matrix.reshape(-1)
    ws = _workspace(min(CHUNK, flat.size))
    m = len(ws.slots)
    starts = range(0, flat.size, m)
    counts = [_classify(flat[start : start + m], ws) for start in starts]
    full = [count == min(m, flat.size - start) for count, start in zip(counts, starts)]
    i = 0
    while i < len(starts):
        if full[i]:
            x = flat[starts[i] : starts[i] + m]
            words = ws.rows(len(x))
            last = words[1].view(np.intp)
            last.fill(0)
            last[_row_ends(starts[i], cols)] = 1
            _chunk_text(x, words, ws.fields[: len(x)])
            _write(fh, ws, len(x))
            i += 1
            continue
        j, held = i + 1, counts[i]
        while j < len(starts) and not full[j] and held + counts[j] <= m:
            held += counts[j]
            j += 1
        _write_batch(fh, flat, starts[i:j], held, cols, ws)
        i = j


def write_csv(path, header: list, matrix: np.ndarray) -> None:
    """The CSV file ``path``: one ``header`` row as csv.writer writes it,
    then the rows of ``matrix`` (see ``write_csv_rows``)."""
    line = io.StringIO(newline="")
    csv.writer(line).writerow(header)
    with open(path, "wb") as fh:
        fh.write(line.getvalue().encode())
        write_csv_rows(fh, matrix)
