"""JSON text of table rows whose numbers are the bytes of ``float.__repr__``.

``float.__repr__`` writes the shortest digits that read back as the same
float.  ``shortest_digits`` finds them for a whole array with numpy: with
e = floor(log10 |x|), y = |x| 10^(16-e) is formed exactly as an integer
plus a fraction (a Veltkamp two-product with a double-double power of
ten).  Every number within half a float spacing of |x|, scaled the same
way, reads back as x: that is [y - H, y + H] with
H = spacing(|x|) 10^(16-e) / 2.  The largest k for which a multiple of
10^k lies in it gives the digit count 17 - k, and the multiple of 10^k
nearest to y gives the digits (Ryu's digits: Adams, PLDI 2018).  Values
this does not decide are written by a fallback formatter, so no byte
differs from ``float.__repr__``.

The CLI imports this module on its first JSON write, so a run that writes
only CSV neither compiles it nor builds its tables.
"""

from __future__ import annotations

import numpy as np

TIE = 1e-6  # interval edges and rounding ties this close take the fallback
# rows formatted at once.  Writing the three-density 201 x 201 sweep as
# the first write of a fresh process (2-core host, median of 8), 1,024
# rows took 0.25 s, against 0.29 s at 512 rows and 0.30 s at 2,048
FORMAT_ROWS = 1024
WORD = np.dtype("<u8")


def _words(texts) -> np.ndarray:
    """Each text NUL-padded to 8 bytes, as one little-endian word."""
    return np.array(texts, "S8").view(WORD)


def _powers_of_ten(count: int):
    """10^n for n < count as hi + lo, from exact integers."""
    hi, lo, exact = [], [], 1
    for _ in range(count):
        hi.append(float(exact))
        lo.append(float(exact - int(hi[-1])))
        exact *= 10
    return np.array(hi), np.array(lo)


_P10_HI, _P10_LO = _powers_of_ten(288)
_P10_HH = _P10_HI * 134_217_729.0  # Veltkamp halves of _P10_HI
_P10_HH -= _P10_HH - _P10_HI
_P10_HL = _P10_HI - _P10_HH
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_E_MIN = -271  # exponents of the fast path, up to 10^16 after a carry

# One value is a slot of SLOT_WORDS words of NUL-padded text, its last
# word the separator ",\n" and the next value's indent.  Word 0 is the
# sign, "0.000" before a positional value below 1 (by exponent -5 ... 0
# and sign), the first digit and its '.'; words 1-4 each hold 4 digits at
# the even bytes and a '.' or NUL after each; word 5 is the ".0"'s '0' of
# an integer or "e-05".
SLOT_WORDS = 7
_HEAD = _words([(b"-" if neg else b"\0") + (b"0.000"[:1 - e] if -4 <= e < 0 else b"")
                for e in range(-5, 1) for neg in (0, 1)])
_FIRST = _words([b"\0" * 6 + b"%d" % d for d in range(10)])
_DOT0 = _words([b"", b"\0" * 7 + b"."] + [b""] * 15)
_PAIRS = np.array([bytes([48 + i // 10, 0, 48 + i % 10, 0]) for i in range(100)],
                  "S4").view("<u4").astype(WORD)  # "ab" -> "a\0b\0"
_SPREAD = (_PAIRS[:, None] | _PAIRS << 32).ravel()  # "abcd" -> "a\0b\0c\0d\0"
# word i by the digits kept (those before index keep) and by dot, where the
# '.' follows digit dot - 1 (dot 0: none); digit 4i + 1 + m is at byte 2m
_DIGIT = np.arange(1, 17)
_KEEP = np.zeros((18, 16, 2), np.uint8)
_KEEP[..., 0] = 0xFF * (_DIGIT < np.arange(18)[:, None])
_KEEP = _KEEP.reshape(18, 32).view(WORD).T.copy()
_DOT = np.zeros((17, 16, 2), np.uint8)
_DOT[..., 1] = ord(".") * (_DIGIT + 1 == np.arange(17)[:, None])
_DOT = _DOT.reshape(17, 32).view(WORD).T.copy()
_TAIL = _words([b"e%+03d" % e if not -4 <= e < 16 else b"0" if zero else b""
                for e in range(_E_MIN, 18) for zero in (0, 1)])
SEPARATOR = b",\n      "  # between two values of a row, one word
ROW_HEAD = _words([b",\n    [\n", b"      "])  # the first row drops its ','
_SEPARATOR = _words([SEPARATOR])[0]
ROW_END = _words([b"\n    ]"])[0]  # replaces the last value's separator
_VALUE_TEXT = np.dtype({"names": ["text"], "formats": ["S45"], "offsets": [0],
                        "itemsize": 56})


def shortest_digits(values):
    """(slow, digits, e10, nd): the shortest round-trip digits of each |x| in
    the float array ``values``, as ``float.__repr__`` chooses them,
    left-aligned in 17 places; e10 is the exponent of the first digit and
    nd the digit count.  ``slow`` marks the values this does not decide:
    zeros, non-finite values, |x| outside [1e-270, 1e16), powers of two
    (their spacing below is smaller) and values with an interval edge or a
    rounding tie within TIE.
    """
    a = np.abs(values)
    slow = ~((a >= 1e-270) & (a < 1e16)) | (a.view(np.uint64) & ((1 << 52) - 1) == 0)
    np.copyto(a, 1.5, where=slow)
    n = (16.0 - np.floor(np.log10(a))).astype(np.intp)
    hi, lo = _P10_HI.take(n), _P10_LO.take(n)
    p = a * hi
    a_hi = a * 134_217_729.0
    a_hi -= a_hi - a
    a_lo = a - a_hi
    h_hi, h_lo = _P10_HH.take(n), _P10_HL.take(n)
    r = (((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo) + a * lo
    whole = np.floor(r)
    y = p.astype(np.int64) + whole.astype(np.int64)  # y + frac is |x| 10^n
    frac = r - whole
    half = ((a.view(np.int64) & (0x7FF << 52)) - (53 << 52)).view(np.float64)
    below = (frac - half * hi) - half * lo
    above = (frac + half * hi) + half * lo
    first, last = np.ceil(below), np.floor(above)
    slow |= ((np.abs(first - below - 0.5) >= 0.5 - TIE)
             | (np.abs(above - last - 0.5) >= 0.5 - TIE)
             | (y < 10 ** 16) | (y >= 10 ** 17))
    # the integers in the interval are top - width + 1 ... top, and a
    # multiple of 10^k is among them when top mod 10^k < width
    top = y + last.astype(np.int64)
    width = (last - first).astype(np.int64) + 1
    hundreds = top // 100
    last2 = top - hundreds * 100
    k = (last2 % 10 < width).astype(np.intp)
    short = last2 < width  # k >= 2: at most 15 digits
    if short.any():
        c = hundreds[short].astype(np.float64)  # below 2^53, so exact
        zeros = np.full(len(c), 2, np.intp)
        for s in (8, 4, 2, 1):
            q = c / 10.0 ** s  # an integer exactly when 10^s divides c
            divides = q == np.floor(q)
            c = np.where(divides, q, c)
            zeros += s * divides
        k[short] = zeros
    # nearest multiple of 10^k; a tie can only arise for k <= 1, where the
    # remainder is exact as a float
    step = _POW10.take(k)
    q = y // step
    t = ((y - q * step).astype(np.float64) + frac) - step / 2
    slow |= np.abs(t) <= TIE
    digits = (q + (t > 0)) * step
    e10, nd = 16 - n, 17 - k
    carry = k == 17  # rounded up to 10^17
    if carry.any():
        digits[carry] = 10 ** 16
        e10[carry] += 1
        nd[carry] = 1
    return slow, digits, e10, nd


def _value_slots(values, words, fallback) -> None:
    """Fill ``words``, a (rows, cols, SLOT_WORDS) array of WORD, with the
    text of the float block ``values`` as ``float.__repr__`` writes it
    (positional for exponents -4 ... 15, "d.ddde-XX" otherwise), or as
    ``fallback`` writes the values ``shortest_digits`` leaves undecided;
    null if not finite."""
    slow, digits, e10, nd = (v.reshape(values.shape)
                             for v in shortest_digits(values.reshape(-1)))
    positional = (e10 >= 0) & (e10 < 16)
    keep = np.where(positional, np.maximum(nd, e10 + 1), nd)
    scientific = (e10 < -4) | (e10 >= 16)
    dot = np.where(positional, e10 + 1, scientific & (nd > 1))
    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    high = (rest // 10 ** 8).astype(np.uint32)
    low = (rest - high * np.int64(10 ** 8)).astype(np.uint32)
    head = 2 * (np.clip(e10, -5, 0) + 5) + (values < 0)
    words[..., 0] = _HEAD.take(head) | _FIRST.take(first) | _DOT0.take(dot)
    for i, group in enumerate((high // 10_000, high % 10_000,
                               low // 10_000, low % 10_000)):
        words[..., 1 + i] = ((_SPREAD.take(group) & _KEEP[i].take(keep))
                             | _DOT[i].take(dot))
    words[..., 5] = _TAIL.take(2 * (e10 - _E_MIN) + (positional & (nd <= e10 + 1)))
    words[..., 6] = _SEPARATOR
    if slow.any():
        part = values[slow]
        text = [fallback(v) if ok else "null"
                for v, ok in zip(part.tolist(), np.isfinite(part).tolist())]
        words.view(_VALUE_TEXT)["text"][..., 0][slow] = text


def number_rows(values, words, fallback) -> None:
    """Fill ``words`` (rows, cols * SLOT_WORDS) with the slots of the rows
    ``values`` (rows, cols), FORMAT_ROWS rows at a time."""
    slots = words.reshape(len(values), -1, SLOT_WORDS)
    for lo in range(0, len(values), FORMAT_ROWS):
        _value_slots(values[lo:lo + FORMAT_ROWS], slots[lo:lo + FORMAT_ROWS],
                     fallback)
