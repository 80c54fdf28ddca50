"""Grid CSV output shared by the CLI and the finite-difference oracle.

Every number is written as the exact bytes of repr(float(v)): the shortest
decimal that reads back as v, positional for 1e-4 <= |v| < 1e16 and in
exponent form otherwise.  `repr_words` builds those bytes for a whole
array at once, with no Python call per value:

- the digits come from Giulietti's Schubfach algorithm ("The Schubfach way
  to render doubles", 2020) in unsigned 64-bit numpy arithmetic, each
  64 x 64 -> 128-bit product built from 32-bit halves.  The two words of
  the 126-bit multiplier are stacked and multiplied in one pass, and the
  three rounded products share one product and one shifted multiplier;
- the text of a value is held as three little-endian 64-bit words (24
  bytes, the longest repr of a double).  The 17 digits are spelled once,
  after six "0" bytes, and one row of `_FORMS`, keyed by the decimal
  point's place, the count of digits and the sign, says how to cut them
  into repr's text: two byte shifts, a mask for each, and the constant
  bytes ("-", ".", "0.0") laid over them.  Only exponent-form values get
  an exponent appended.

Subnormals, infinities and NaN, which the algorithm does not cover, go
through repr itself; +-0.0 has rows of its own.  `write_grid` lays out
the line of a node in fixed slots, with the separators, the newline and
(for chunks of whole grid rows) the axis-2 text written once per file,
so each chunk writes only its axis-1 text, its regions and its values
before the NUL padding is dropped.  The file is never held in memory
whole: at most CHUNK_NODES nodes are laid out at a time.
"""

from __future__ import annotations

import numpy as np

#: grid nodes formatted and written per chunk; bounds the writer's working memory
CHUNK_NODES = 4096
#: bytes of the longest repr of a double, e.g. -2.2250738585072014e-308
REPR_BYTES = 24

_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
# the bits of 1.5, a stand-in for the values repr formats; not a power of
# two, so it takes no irregular interval
_STAND_IN = 0x3FF8 << 48

# per binary exponent, Schubfach's k and h and its 126-bit multiplier
# g = floor(10^-k 2^-r) + 1 as the rows of _SCALE: k (two's complement),
# h, g1 = g >> 63 and g0 = g mod 2^63.  Column b is for v = c 2^(b - 1075),
# column b + 2048 for a power of two above the subnormals, whose gap below
# is half the gap above.  A column is built when it first occurs
_SCALE = np.zeros((4, 4096), dtype=np.uint64)
_BUILT = np.zeros(4096, dtype=bool)

# for each four-digit group i = 100 hi + lo: its ASCII digits, first digit
# in the low byte, and its trailing decimal zeros (4 for the group 0);
# _TZ3 counts them in a three-digit group.  _HEAD holds the first two of
# 17 digits after six "0" bytes, and _TAIL the last three in bytes 4..6
_I = np.arange(100)
_PAIR = (_I // 10 + 48) | (_I % 10 + 48) << 8
_QUAD = (_PAIR[:, None] | _PAIR << 16).astype(np.uint64).ravel()
_TZ2 = (_I % 10 == 0) + (_I == 0).astype(np.int64)
_TZ4 = np.where(_I == 0, 2 + _TZ2[:, None], _TZ2).ravel()
_TZ3 = _TZ4[:10_000:10] - 1
_HEAD = 0x303030303030 | ((_QUAD[:100] >> 16) << 48)
_TAIL = (_QUAD[:1000] >> 8) << 32


def _forms():
    """The text forms of repr, one row per key ((place * 18) + digits) * 2 + sign.

    `place` is 0 for a decimal point at or before -4 (exponent form),
    point + 4 for the positional points -3..16, 21 beyond them (exponent
    form again) and 22 for zero; the first digit weighs 10^(point - 1).
    The text is cut from `_digit_text`'s words shifted right by `shift`
    bytes, which puts the digits after the decimal point in place, and by
    `shift + 1` bytes, which puts those before it in place.  A row holds
    the shift in bits and its 64-complement, the masks of the bytes taken
    from each shift, the constant bytes ("-", ".", "0.0"), the length, the
    count of words holding digits before the point, and whether an
    exponent follows.
    """
    place, digits, sign = (a.reshape(-1) for a in np.indices((23, 18, 2)))
    point = place - 4
    exponent = (place == 0) | (place == 21)
    leading = ~exponent & (point <= 0)
    zero = place == 22
    shift = np.where(leading, 4 + point, 5) - sign
    dot = sign + np.where(exponent | leading, 1, point)
    length = sign + np.where(leading, 2 - point + digits, np.where(
        exponent, digits + (digits > 1), np.maximum(digits, point + 1) + 1))
    length = np.where(zero, 3 + sign, length)
    byte = np.arange(REPR_BYTES)
    before = (byte >= sign[:, None]) & (byte < dot[:, None]) & ~(zero | leading)[:, None]
    after = ((byte > dot[:, None]) | leading[:, None]) & (byte < length[:, None]) & ~zero[:, None]
    text = np.zeros((sign.size, REPR_BYTES), dtype=np.uint8)
    text[np.flatnonzero(~zero & (length > dot)), dot[~zero & (length > dot)]] = ord(".")
    text[zero] = np.frombuffer(b"0.0".ljust(REPR_BYTES, b"\0"), dtype=np.uint8)
    text[zero & (sign == 1)] = np.frombuffer(b"-0.0".ljust(REPR_BYTES, b"\0"), dtype=np.uint8)
    text[(sign == 1) & ~zero, 0] = ord("-")
    after &= text == 0
    words = lambda mask: (mask.astype(np.uint8) * np.uint8(255)).view("<u8")
    bits = (8 * shift).astype(np.uint64)
    table = [bits, 64 - bits, words(before), words(after), text.view("<u8"), length,
             np.where(before.any(axis=1), (dot - 1) // 8 + 1, 0), exponent]
    return np.column_stack([np.asarray(c).astype(np.uint64) for c in table])


_FORMS = _forms()
# the key of `_forms` before its digits and sign, 36 place, indexed by the
# decimal point itself: a negative point counts from the end
_PLACE = 36 * np.concatenate([np.arange(4, 21), np.full(383, 21), np.zeros(397, int), np.arange(1, 4)])


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


def _products(g, cp):
    """The 128-bit products of the rows of g with cp, uint64 arrays, as
    (high, low) words, from 32-bit halves.  With g <= 2^63 and cp < 2^59,
    the middle terms and the carry from the low term sum below 2^64."""
    gh, gl = g >> 32, g & _M32
    ch, cl = cp >> 32, cp & _M32
    return gh * ch + ((gh * cl + gl * ch + ((gl * cl) >> 32)) >> 32), g * cp


def _round_to_odd(high, low):
    """floor(g cp / 2^127) with g = g1 2^63 + g0, from the (high, low) words
    of g1 cp and g0 cp in rows 0 and 1, its last bit set when the quotient
    is inexact (Schubfach's rop)."""
    z = (low[0] >> 1) + high[1]
    # the sticky bit: whether the low 63 bits of z are not all zero
    return (high[0] + (z >> 63)) | np.minimum(z << 1, 1)


def _decompose(magnitude):
    """c, Schubfach's k, h and g = (g1, g0) for v = c 2^q, and the rows
    where v is a power of two above the subnormals."""
    frac = magnitude & ((1 << 52) - 1)
    rows = (magnitude >> 52).view(np.int64)
    irregular = np.flatnonzero(frac == 0)
    irregular = irregular[rows[irregular] > 1]
    rows[irregular] += 2048
    built = _BUILT[rows]
    if not built.all():
        for row in set(rows[~built].tolist()):
            q = row % 2048 - 1075
            k = (q * 661_971_961_083 - (row >= 2048) * 274_743_187_321) >> 41
            _SCALE[:, row] = k % 2**64, q + ((-k * 217_706) >> 16) + 2, *_g_row(k)
            _BUILT[row] = True
    frac |= 1 << 52
    scale = np.take(_SCALE, rows, axis=1)
    return frac, scale[0].view(np.int64), scale[1], irregular, scale[2:]


def _scaled_interval(c, h, irregular, g):
    """v and the ends of its rounding interval scaled by 4 10^-k and
    rounded to odd: the products of g with cb = 4c, with cb - 2 (cb - 1 at
    a power of two, the rows `irregular`) and with cb + 2, each shifted
    left by h.

    The ends are g cb 2^h -+ g 2^(h+1): one product and one shifted
    multiplier, added and subtracted; a power of two redoes its lower
    end with g 2^h."""
    high, low = _products(g, c << (h + 2))

    def ends(shift, g, high, low):
        # g 2^shift, as the (high, low) words of g1 2^shift and g0 2^shift
        up, down = g >> (64 - shift), g << shift
        below = _round_to_odd(high - up - (low < down), low - down)
        low = low + down
        return below, _round_to_odd(high + up + (low < down), low)

    vbl, vbr = ends(h + 1, g, high, low)
    if irregular.size:
        vbl[irregular] = ends(h[irregular], g[:, irregular], high[:, irregular], low[:, irregular])[0]
    return _round_to_odd(high, low), vbl, vbr


def _shortest(magnitude):
    """Schubfach: the shortest decimal f 10^k that rounds to each positive
    normal double, the closest one if several, the even one on a tie."""
    c, k, h, irregular, g = _decompose(magnitude)
    vb, vbl, vbr = _scaled_interval(c, h, irregular, g)
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
    """The 17 significant digits of f 10^k as ASCII after six "0" bytes, in
    the three rows of words; with the count of digits before the trailing
    zeros and the position of the decimal point (the first digit weighs
    10^(point - 1))."""
    # 16 or 17 digits: scale to 17
    short = f < 10**16
    f = np.where(short, f * 10, f).view(np.int64)
    point = k + 17 - short
    # the groups of 2, 4, 4, 4 and 3 digits
    g1 = f // 10**15
    rest = f - g1 * 10**15
    t = rest // 1000
    g5 = rest - t * 1000
    g2 = t // 10**8
    lo = t - g2 * 10**8
    g3 = lo // 10**4
    g4 = lo - g3 * 10**4
    text = np.empty((3, f.size), dtype=np.uint64)
    text[0] = _HEAD[g1]
    np.bitwise_or(_QUAD[g2], _QUAD[g3] << 32, out=text[1])
    np.bitwise_or(_QUAD[g4], _TAIL[g5], out=text[2])
    # g1 >= 10, so the zeros stop in it; most values end in a non-zero g5
    zeros = _TZ3[g5]
    at = np.flatnonzero(g5 == 0)
    if at.size:
        g1, g2, g3, g4 = g1[at], g2[at], g3[at], g4[at]
        zeros[at] += _TZ4[g4] + (g4 == 0) * (_TZ4[g3] + (g3 == 0) * (_TZ4[g2] + (g2 == 0) * (g1 % 10 == 0)))
    return text, 17 - zeros, point


def repr_words(values, out=None):
    """repr(float(v)) of each v as ASCII in three little-endian uint64 words.

    Returns (words, lengths): words of shape (n, 3), NUL-padded after the
    lengths[i] characters of value i.  The words are written into `out`
    when it is given, a uint64 array of that shape.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    bits = x.view(np.uint64)
    magnitude = bits & _M63
    # normal: 2^-1022 <= |x| < inf, by one unsigned comparison
    odd = np.flatnonzero(magnitude - (1 << 52) >= (0x7FE << 52))
    zero = magnitude[odd] == 0
    magnitude[odd] = _STAND_IN
    text, digits, point = _digit_text(*_shortest(magnitude))
    key = _PLACE[point]
    key[odd[zero]] = 22 * 36
    key += 2 * digits
    key += (bits >> 63).view(np.int64)
    form = np.take(_FORMS, key, axis=0)
    after = text >> form[:, 0]
    after[:2] |= text[1:] << form[:, 1]
    # the digits before the point, where there are any: one byte further,
    # each word taking the first byte of the next
    reach = int(form[:, 12].max(initial=0))
    before = after[:reach] >> 8
    before[:2] |= after[1:3][:reach] << 56
    before &= form[:, 2 : 2 + reach].T
    after &= form[:, 5:8].T
    after[:reach] |= before
    words = np.empty((x.size, 3), dtype="<u8") if out is None else out
    np.bitwise_or(after, form[:, 8:11].T, out=words.T)
    length = form[:, 11].view(np.int64)
    at = np.flatnonzero(form[:, 13])
    if at.size:
        _append_exponents(words, length, at, point[at] - 1)
    for i in odd[~zero].tolist():
        text = repr(float(x[i])).encode("ascii")
        words[i] = np.frombuffer(text.ljust(REPR_BYTES, b"\0"), dtype="<u8")
        length[i] = len(text)
    return words, length


def _append_exponents(words, length, at, e):
    """Append e+XX or e-XXX to the text of the rows `at`, whose exponents are `e`."""
    big = np.abs(e) >= 100
    suffix = (_QUAD[np.abs(e)] >> (16 - 8 * big).astype(np.uint64)) << 16
    suffix |= np.where(e < 0, ord("-"), ord("+")).astype(np.uint64) << 8 | ord("e")
    end = length[at]
    bit = (8 * (end % 8)).astype(np.uint64)
    padded = np.zeros((at.size, 4), dtype=np.uint64)
    padded[:, :3] = words[at]
    rows = np.arange(at.size)
    padded[rows, end // 8] |= suffix << bit
    padded[rows, end // 8 + 1] |= suffix >> (64 - bit)
    words[at] = padded[:, :3]
    length[at] = end + 4 + big


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

    A line is laid out in slots, each followed by its separator: REPR_BYTES
    for a number, the longest axis-2 text when every chunk holds whole
    rows, the longest label for the regions.  The separators, the newline
    and whole-row axis-2 texts are written once, into a buffer every chunk
    reuses; a chunk fills the other slots, text and NUL padding alike, and
    writes the buffer with its NULs dropped.
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
    widths = [REPR_BYTES, REPR_BYTES if seconds is None else int(seconds[1].max(initial=0))]
    widths += ([] if labels is None else [labels.shape[1]]) + [REPR_BYTES] * len(columns)
    ends = np.cumsum(np.add(widths, 1)) - 1
    starts = (ends - widths).tolist()
    buffer = np.zeros((rows, span, int(ends[-1]) + 1), dtype=np.uint8)
    buffer[..., ends] = ord(",")
    buffer[..., -1] = ord("\n")
    if seconds is not None and n2:
        buffer[..., starts[1] : ends[1]] = seconds[0].view(np.uint8)[:, : widths[1]]
    number = lambda line, start: line[..., start : start + REPR_BYTES].view("<u8")
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("utf-8"))
        for i0 in range(0, n1, rows):
            if i0 % block == 0:
                firsts, b0 = repr_words(axis1[i0 : i0 + block])[0], i0
            i1 = min(i0 + rows, n1)
            for j0 in range(0, n2, span):
                j1 = min(j0 + span, n2)
                line = buffer[: i1 - i0, : j1 - j0]
                number(line, starts[0])[...] = firsts[i0 - b0 : i1 - b0, None]
                if seconds is None:
                    number(line, starts[1])[...] = repr_words(axis2[j0:j1])[0]
                if labels is not None:
                    line[..., starts[2] : ends[2]] = labels[i0:i1, None]
                for col, start in zip(columns, starts[-len(columns) :] if columns else []):
                    repr_words(col[i0:i1, j0:j1], out=number(line, start).reshape(-1, 3))
                fh.write(line[line != 0])


def write_solve_csv(path, geometry, axis1, axis2, values):
    """Write a solve's grid: header `<axes>,region,u`, region 2 on the rows of layer 2."""
    regions = np.where(geometry.in_layer2(axis1), b"2", b"1")
    write_grid(path, ",".join(geometry.axes) + ",region,u", axis1, axis2, [values], regions)
