"""Grid CSV output shared by the CLI and the finite-difference oracle.

Every number is written as the exact bytes of repr(float(v)): the shortest
decimal that reads back as v, positional for 1e-4 <= |v| < 1e16 and in
exponent form otherwise.  `repr_words` builds those bytes for a whole
array at once, with no Python call per value:

- the digits come from Giulietti's Schubfach algorithm ("The Schubfach way
  to render doubles", 2020) in unsigned 64-bit numpy arithmetic, each
  64 x 64 -> 128-bit product built from 32-bit halves;
- the text of a value is held as three little-endian 64-bit words (24
  bytes, the longest repr of a double), and the decimal point, sign and
  exponent are placed by shifting and masking whole words, after the
  trailing zeros of the digits are dropped.

Zeros, subnormals, infinities and NaN, which the algorithm does not cover,
go through repr itself.  `write_grid` formats a bounded chunk of grid
nodes at a time, axis values included, and writes each chunk as one
compacted byte string, so the file is never held in memory whole.
"""

from __future__ import annotations

import numpy as np

#: grid nodes formatted and written per chunk; bounds the writer's working memory
CHUNK_NODES = 4096
#: bytes of the longest repr of a double, e.g. -2.2250738585072014e-308
REPR_BYTES = 24

_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_ONE = 0x3FF << 52  # the bits of 1.0, a stand-in for the values repr formats
_K_MIN = -324  # smallest decimal exponent k of a normal double (Schubfach's K_MIN)

# the 126-bit Schubfach multipliers g = floor(10^-k 2^-r) + 1, split as
# g1 = g >> 63 and g0 = g mod 2^63; a row is built when its k first occurs
_G1 = np.zeros(292 - _K_MIN + 1, dtype=np.uint64)
_G0 = np.zeros_like(_G1)
_G_BUILT = np.zeros(_G1.size, dtype=bool)

# for each four-digit group i: its ASCII digits, first digit in the low
# byte, and its trailing decimal zeros (4 for the group 0)
_I = np.arange(10_000, dtype=np.uint64)
_QUAD = sum((_I // 10**p % 10 + ord("0")) << 8 * (3 - p) for p in range(4))
_TZ4 = sum((_I % p == 0).astype(np.int64) for p in (10, 100, 1000, 10_000))

# word tables indexed by a byte position j in 0..24 of a 24-byte string:
# the bytes below j in word w, "." at byte j, and the left and right shifts
# that move a one-word string starting at byte 0 to byte j (64 clears)
_J = np.arange(REPR_BYTES + 1) - 8 * np.arange(3)[:, None]
_BELOW = (np.uint64(1) << (8 * np.clip(_J, 0, 8)).astype(np.uint64)) - np.uint64(1)
_DOT = np.where((_J >= 0) & (_J < 8), np.uint64(ord(".")) << (8 * np.clip(_J, 0, 7)).astype(np.uint64), 0)
_LEFT = np.where((_J >= 0) & (_J < 8), 8 * _J, 64).astype(np.uint64)
_RIGHT = np.where((_J < 0) & (_J > -8), -8 * _J, 64).astype(np.uint64)


def _g_row(k):
    """Schubfach's (g1, g0) for 10^-k = beta 2^r with 2^125 <= beta < 2^126."""
    if k <= 0:
        n = 10**-k
        shift = n.bit_length() - 126
        g = (n >> shift if shift >= 0 else n << -shift) + 1
    else:
        d = 10**k
        g = (1 << (d.bit_length() + 125)) // d + 1
    return g >> 63, g & _M63


def _multipliers(k):
    """g1 and g0 per element of the decimal exponents `k`, building missing rows."""
    rows = k - _K_MIN
    built = _G_BUILT[rows]
    if not built.all():
        for row in set(rows[~built].tolist()):
            _G1[row], _G0[row] = _g_row(row + _K_MIN)
            _G_BUILT[row] = True
    return _G1[rows], _G0[rows]


def _products(g1, g0, cp):
    """The 128-bit products g1 cp and g0 cp of uint64 arrays, each as
    (high, low) words, from 32-bit halves."""
    ch, cl = cp >> 32, cp & _M32
    out = []
    for g in (g1, g0):
        gh, gl = g >> 32, g & _M32
        mid = gh * cl
        out.append((gh * ch + (mid >> 32) + ((((gl * cl) >> 32) + (mid & _M32) + gl * ch) >> 32), g * cp))
    return out


def _plus_shifted(hi, lo, g, shift):
    """(hi, lo) + (g << shift) in 128 bits, for g < 2^63 and 0 < shift < 64."""
    add = g << shift
    lo = lo + add
    return hi + (g >> (64 - shift)) + (lo < add), lo


def _minus_shifted(hi, lo, g, shift):
    """(hi, lo) - (g << shift) in 128 bits, for g < 2^63 and 0 < shift < 64."""
    sub = g << shift
    return hi - (g >> (64 - shift)) - (lo < sub), lo - sub


def _round_to_odd(y, x):
    """floor(g cp / 2^127) with g = g1 2^63 + g0, from y = g1 cp and x = g0 cp,
    its last bit set when the quotient is inexact (Schubfach's rop)."""
    z = (y[1] >> 1) + x[0]
    return (y[0] + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _decompose(magnitude):
    """c and Schubfach's k and h for v = c 2^q, and whether v is a power of
    two above the subnormals, where the gap below v is half the gap above."""
    frac = magnitude & ((1 << 52) - 1)
    biased = (magnitude >> 52).view(np.int64)
    irregular = (frac == 0) & (biased > 1)
    q = biased - 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 217_706) >> 16) + 2).view(np.uint64)
    return frac | (1 << 52), k, h, irregular


def _scaled_interval(c, h, irregular, g1, g0):
    """v and the ends of its rounding interval scaled by 4 10^-k and
    rounded to odd: the products of g with cb = 4c, with cb - 2 (cb - 1 at
    a power of two) and with cb + 2, each shifted left by h."""
    y, x = _products(g1, g0, c << (h + 2))
    below = h + 1 - irregular
    return (_round_to_odd(y, x),
            _round_to_odd(_minus_shifted(*y, g1, below), _minus_shifted(*x, g0, below)),
            _round_to_odd(_plus_shifted(*y, g1, h + 1), _plus_shifted(*x, g0, h + 1)))


def _shortest(magnitude):
    """Schubfach: the shortest decimal f 10^k that rounds to each positive
    normal double, the closest one if several, the even one on a tie."""
    c, k, h, irregular = _decompose(magnitude)
    vb, vbl, vbr = _scaled_interval(c, h, irregular, *_multipliers(k))
    # the interval excludes its ends when c is odd
    odd = c & 1
    vbl += odd
    vbr -= odd
    s = vb >> 2
    # a multiple of 10^(k+1) inside the interval is the unique shortest
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= vbr
    # else s or s + 1 at 10^k: the one inside, or the closer, or the even
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    pick_t = ~(uin & (~win | (vb + (s & 1) <= (s << 2) + 2)))
    return np.where(upin != wpin, sp10 + wpin * np.uint64(10), s + pick_t), k


def _digit_text(f, k):
    """The 17 significant digits of f 10^k as ASCII after five "0" bytes, in
    three words; with the count of digits before the trailing zeros and the
    position of the decimal point (the first digit weighs 10^(point - 1))."""
    # 16 or 17 digits: scale to 17
    short = f < 10**16
    f = np.where(short, f * 10, f).view(np.int64)
    point = k + 17 - short
    # the groups of 3, 4, 4, 4 and 2 digits
    t = f // 100
    g5 = f - t * 100
    hi = t // 10**8
    lo = t - hi * 10**8
    g1, g3 = hi // 10**4, lo // 10**4
    g2, g4 = hi - g1 * 10**4, lo - g3 * 10**4
    text = (0x3030303030 | ((_QUAD[g1] >> 8) << 40), _QUAD[g2] | (_QUAD[g3] << 32),
            _QUAD[g4] | ((_QUAD[g5] >> 16) << 32))
    zeros = _TZ4[g4] + (g4 == 0) * (_TZ4[g3] + (g3 == 0) * (_TZ4[g2] + (g2 == 0) * _TZ4[g1]))
    zeros = _TZ4[g5 * 100] - 2 + (g5 == 0) * zeros
    return text, 17 - zeros, point


def _place(text, digits, point, sign):
    """repr's text from _digit_text's: the digits from byte `start`, with "."
    inserted before byte `dot`, cut to `length`.  The forms are 0.00ddd,
    dd.ddd or ddd.0, and d.ddd before an exponent.  A negative value starts
    one byte early, on a "0", which becomes "-"."""
    positional = (point > -4) & (point <= 16)
    leading = positional & (point <= 0)
    start = (8 * (np.where(leading, 4 + point, 5) - sign)).view(np.uint64)
    dot = np.where(positional & (point > 0), point, 1) + sign
    length = sign + np.where(leading, digits - point + 2, np.where(
        positional, np.maximum(digits, point + 1) + 1, digits + (digits > 1)))
    body = ((text[0] >> start) | (text[1] << (64 - start)),
            (text[1] >> start) | (text[2] << (64 - start)), text[2] >> start)
    words = np.empty((sign.size, 3), dtype="<u8")
    carry = 0
    for w in range(3):
        below = _BELOW[w][dot]
        after = body[w] & ~below
        words[:, w] = ((body[w] & below) | (after << 8) | carry | _DOT[w][dot]) & _BELOW[w][length]
        carry = after >> 56
    words[:, 0] -= sign.view(np.uint64) * (ord("0") - ord("-"))
    return words, length, ~positional


def _append_exponent(words, length, e, exponent):
    """Append e+XX or e-XXX to the words of the rows where `exponent` holds."""
    big = np.abs(e) >= 100
    suffix = (_QUAD[np.abs(e)] >> np.where(big, 8, 16).view(np.uint64)) << 16
    suffix |= np.where(e < 0, ord("-"), ord("+")).view(np.uint64) << 8 | ord("e")
    suffix[~exponent] = 0
    for w in range(3):
        words[:, w] |= (suffix << _LEFT[w][length]) | (suffix >> _RIGHT[w][length])
    return length + exponent * (4 + big)


def repr_words(values):
    """repr(float(v)) of each v as ASCII in three little-endian uint64 words.

    Returns (words, lengths): words of shape (n, 3), NUL-padded after the
    lengths[i] characters of value i.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = x.view(np.uint64)
    magnitude = bits & _M63
    normal = (magnitude >= 1 << 52) & (magnitude < 0x7FF << 52)
    magnitude[~normal] = _ONE
    text, digits, point = _digit_text(*_shortest(magnitude))
    words, length, exponent = _place(text, digits, point, (bits >> 63).view(np.int64))
    exponent &= normal
    if exponent.any():
        length = _append_exponent(words, length, point - 1, exponent)
    for i in np.flatnonzero(~normal).tolist():
        text = repr(float(x[i])).encode("ascii")
        words[i] = np.frombuffer(text.ljust(REPR_BYTES, b"\0"), dtype="<u8")
        length[i] = len(text)
    return words, length


def _text_chars(strings):
    """NUL-padded ASCII rows of an array of short strings."""
    raw = np.asarray(strings).astype(np.bytes_)
    return raw.view(np.uint8).reshape(raw.size, raw.dtype.itemsize)


def write_grid(path, header, axis1, axis2, columns, regions=None):
    """Write `header`, then one line per node of the tensor grid axis1 x axis2.

    Rows run along axis1.  The line of node (i, j) is

        axis1[i],axis2[j][,regions[i]],columns[0][i, j],columns[1][i, j],...

    with every number written as repr(float(...)) and every region as its
    ASCII bytes.  The nodes are written CHUNK_NODES or fewer at a time:
    whole grid rows when a row fits in a chunk, else pieces of one row.
    """
    axis1 = np.asarray(axis1, dtype=float).reshape(-1)
    axis2 = np.asarray(axis2, dtype=float).reshape(-1)
    n1, n2 = axis1.size, axis2.size
    columns = [np.asarray(col, dtype=float).reshape(n1, n2) for col in columns]
    rows = max(1, CHUNK_NODES // max(n2, 1))
    span = max(1, min(n2, CHUNK_NODES))
    block = rows * max(1, CHUNK_NODES // rows)  # axis1 values formatted at once
    labels = None if regions is None else _text_chars(regions)
    seconds = repr_words(axis2) if n2 <= CHUNK_NODES else None
    # the lines of every chunk are laid out in one buffer
    width = (2 + len(columns)) * (REPR_BYTES + 1) + (0 if labels is None else labels.shape[1] + 1)
    buffer = np.empty(CHUNK_NODES * width, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("utf-8"))
        for i0 in range(0, n1, rows):
            if i0 % block == 0:
                firsts, b0 = repr_words(axis1[i0 : i0 + block]), i0
            i1 = min(i0 + rows, n1)
            for j0 in range(0, n2, span):
                j1 = min(j0 + span, n2)
                seconds_j = seconds if seconds is not None else repr_words(axis2[j0:j1])
                fields = [(firsts[0][i0 - b0 : i1 - b0, None], firsts[1][i0 - b0 : i1 - b0]),
                          (seconds_j[0][None], seconds_j[1])]
                if labels is not None:
                    fields.append((labels[i0:i1, None], None))
                for col in columns:
                    words, length = repr_words(col[i0:i1, j0:j1])
                    fields.append((words.reshape(i1 - i0, j1 - j0, 3), length))
                fh.write(_chunk_text(buffer, (i1 - i0, j1 - j0), fields))


def _chunk_text(buffer, shape, fields):
    """The lines of a chunk of nodes, from its fields in line order: pairs
    (words, lengths) from repr_words, or (ASCII rows, None), that broadcast
    to `shape`.

    Each field gets a slot in `buffer` as wide as its longest text in the
    chunk, then its separator.  Numbers are written through a REPR_BYTES
    view that may reach into the slots after theirs, which are written
    later; the NULs that pad the shorter texts are dropped at the end.
    """
    widths = [chars.shape[-1] if length is None else int(length.max()) for chars, length in fields]
    ends = (np.cumsum(np.add(widths, 1)) - 1).tolist()
    starts = [end - width for end, width in zip(ends, widths)]
    reach = max(start + REPR_BYTES for start, (_, length) in zip(starts, fields) if length is not None)
    line = buffer[: shape[0] * shape[1] * max(ends[-1] + 1, reach)].reshape(*shape, -1)
    line.fill(0)
    for (chars, length), start, end in zip(fields, starts, ends):
        if length is None:
            line[..., start:end] = chars
        else:
            slot = line[..., start : start + REPR_BYTES].view("<u8")
            for w in range(3):
                slot[..., w] = chars[..., w]
        line[..., end] = ord(",")
    line[..., ends[-1]] = ord("\n")
    return line[line != 0]


def write_solve_csv(path, geometry, axis1, axis2, values):
    """Write a solve's grid: header `<axes>,region,u`, region 2 on the rows of layer 2."""
    regions = np.where(geometry.in_layer2(axis1), b"2", b"1")
    write_grid(path, ",".join(geometry.axes) + ",region,u", axis1, axis2, [values], regions)
