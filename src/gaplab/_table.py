"""The one CSV writer, ``write_table``, of every case table and sample
log, and its vectorised ``.17g`` kernel ``_format_17g``."""

import functools
import re

import numpy as np

#: rows of a table laid out as one byte matrix and its keep mask
_BLOCK_ROWS = 2 ** 11
_CELL = 41                # slots of one ``_format_17g`` cell (``_tables``)
#: exact powers 10^0 .. 10^20 and their Veltkamp halves, for ``_digits_17g``
_POW10 = np.array([float(10 ** e) for e in range(21)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: the characters for which ``csv.writer`` quotes a cell
_QUOTED = re.compile('[,"\r\n]')


def _scaled_digits(a, k):
    """rint(a 10^(16 - k)), ties to even, as int64, where the product is at
    least 2^53: TwoProduct (Dekker's Veltkamp split, one rounding a step)
    gives a 10^(16-k) = p + err exactly, p is then an even integer with
    |err| <= ulp(p)/2, and p + rint(err) rounds the exact product."""
    p = a * _POW10[16 - k]
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = a_hi * _POW10_HI[16 - k] - p
    err = err + a_hi * _POW10_LO[16 - k]
    err = err + a_lo * _POW10_HI[16 - k]
    err = err + a_lo * _POW10_LO[16 - k]
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _digits_17g(values):
    """The 17 significant digits D and decimal exponent k of ``.17g`` for
    each float64 of ``values``, and the mask of those certified.

    A value is certified when its 17-digit rounding D = rint(|v| 10^(16-k))
    lies in [10^16, 10^17) for some k in [-4, 16]: that is ``.17g``'s fixed
    notation, and the digits are exact (``_scaled_digits``).  k starts at
    floor(log10 |v|); the values that attempt leaves uncertified, and only
    those, try k moved once by one, which covers a log10 that is off by one
    and the carry to 10^17.  Zeros, subnormals, non-finite values,
    scientific notation and a failed check are not certified.
    """
    a = np.abs(values)
    fixed = (a >= 1e-5) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    digits = _scaled_digits(a, k)
    ok = (digits >= 10 ** 16) & (digits < 10 ** 17)
    retry = np.nonzero(~ok)
    if retry[0].size:
        moved = k[retry] + np.where(digits[retry] < 10 ** 16, -1, 1)
        inside = (moved >= -4) & (moved <= 16)
        again = _scaled_digits(a[retry], np.clip(moved, -4, 16))
        digits[retry], k[retry] = again, moved
        ok[retry] = inside & (again >= 10 ** 16) & (again < 10 ** 17)
    return digits, k, fixed & ok


@functools.cache
def _tables():
    """The read-only tables of ``_format_17g``, built on its first call: the
    keep row of each (k + 4, significant digits, sign) as one ``V41`` item,
    the ASCII of each 4-digit group 0000..9999 as a uint32, and the
    trailing zeros of each group.  A cell is the sign (slot 0), "0.000"
    (1-5), the 17 digits (6-22), the point (23) and the digits again
    (24-40); a keep row takes for k < 0 the first 1 - k prefix slots and
    the significant digits, for k >= 0 digits 0..k, then the point and the
    other significant digits of the second copy if a fraction follows."""
    slot = np.arange(_CELL)
    e = np.arange(-4, 17)[:, None, None, None]
    n = np.arange(18)[:, None, None]
    rows = np.select(
        [slot == 0, slot < 6, slot < 23, slot == 23],
        [np.arange(2)[:, None] == 1, slot - 1 < np.where(e < 0, 1 - e, 0),
         slot - 6 < np.where(e < 0, n, e + 1), (e >= 0) & (n > e + 1)],
        (e >= 0) & (slot - 24 > e) & (slot - 24 < n))
    digit = np.arange(48, 58, dtype=np.uint8)
    ascii = np.stack(np.meshgrid(*[digit] * 4, indexing="ij"), axis=-1)
    group = np.arange(10 ** 4)
    zeros = sum((group % 10 ** j == 0).astype(np.uint8) for j in range(1, 5))
    tables = (np.ascontiguousarray(rows).view(f"V{_CELL}").ravel(),
              ascii.view(np.uint32).ravel(), zeros)
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_17g(values, chars, keep):
    """Write the ``.17g`` string of each float64 of ``values`` into
    ``chars``, a uint8 array of shape values.shape + (41,): the string of v
    is the bytes of its cell that the bool array ``keep``, of the same
    shape, marks, in order.

    A certified value (``_digits_17g``) fills a fixed cell: the sign, the
    prefix "0.000", the 17 digits, the point and the digits again.  Its
    keep row, a function of (k, significant digits, sign), places the point
    by the copy each digit is kept from, so no cell is shifted.  The digits
    are a leading one and four 4-digit groups, whose ASCII and trailing
    zeros (which count the significant digits) are looked up in tables
    built once (``_tables``).  Every other value is written from
    ``format``, left-aligned, once per distinct bit pattern (by sorting).
    """
    rows, ascii, zeros = _tables()
    digits, k, ok = _digits_17g(values)
    lead, rest = np.divmod(np.where(ok, digits, 10 ** 16), 10 ** 16)
    high, low = np.divmod(rest, 10 ** 8)
    groups = np.empty(values.shape + (4,), dtype=np.int32)
    np.divmod(high.astype(np.int32), 10 ** 4, out=(groups[..., 0], groups[..., 1]))
    np.divmod(low.astype(np.int32), 10 ** 4, out=(groups[..., 2], groups[..., 3]))
    chars[..., :6] = (45, 48, 46, 48, 48, 48)
    chars[..., 23] = 46
    chars[..., 6] = chars[..., 24] = lead + 48
    chars[..., 7:23] = chars[..., 25:] = np.take(ascii, groups).view(np.uint8)
    # trailing zeros of the 16 digits after the leading one, group by group
    z = np.take(zeros, groups)
    trailing = z[..., 3] + (z[..., 3] == 4) * (
        z[..., 2] + (z[..., 2] == 4) * (z[..., 1] + (z[..., 1] == 4) * z[..., 0]))
    index = ((k + 4) * 18 + 17 - trailing) * 2 + (values < 0)
    keep[...] = np.take(rows, index).view(bool).reshape(keep.shape)
    bad = np.nonzero(~ok)
    if bad[0].size:
        bits = values[bad].view(np.int64)
        order = np.argsort(bits)
        ranked = bits[order]
        first = np.ones(bits.size, dtype=bool)
        first[1:] = ranked[1:] != ranked[:-1]
        which = np.empty(bits.size, dtype=np.intp)
        which[order] = np.cumsum(first) - 1
        cells = np.array(_dtoa(ranked[first].view(float).tolist()),
                         dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)[which]
        chars[bad], keep[bad] = cells, cells != 0      # format writes no NUL


def _dtoa(values):
    """The ``.17g`` bytes of each float of ``values``, from ``format``: the
    kernel's fallback, and all of a lone value, which costs less than
    certifying it."""
    return [format(v, ".17g").encode() for v in values]


def _text(value):
    """The bytes of one cell: blank for None or "", 1 or 0 for a bool, the
    decimal of an int, ``.17g`` for a float, and the UTF-8 of ``str`` of
    anything else, which must not hold a character ``csv.writer`` quotes."""
    if isinstance(value, str):
        text = value
    elif value is None:
        return b""
    elif isinstance(value, (bool, np.bool_)):
        return b"1" if value else b"0"
    elif isinstance(value, (int, np.integer)):
        return b"%d" % int(value)
    elif isinstance(value, (float, np.floating)):
        return _dtoa([float(value)])[0]
    else:
        text = str(value)
    if _QUOTED.search(text):
        raise ValueError(f"refusing a cell that csv would quote: {text!r}")
    return text.encode()


def _column(values):
    """(floats, texts, where): the column as float64 for the kernel (1.0,
    which it certifies, in text cells) or None, the bytes of its text cells
    (one a row, or one for all rows) or None, and the mask of its text rows
    if it has float rows too.  A numeric column of one bit pattern is one
    text, formatted once."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "biuf"):
        values = list(values)
        kinds = [issubclass(k, (float, np.floating)) for k in set(map(type, values))]
        if not any(kinds):
            return None, list(map(_text, values)), None
        if not all(kinds):
            floats = [isinstance(v, (float, np.floating)) for v in values]
            texts = [b"" if f else _text(v) for v, f in zip(values, floats)]
            return (np.array([v if f else 1.0 for v, f in zip(values, floats)]),
                    texts, ~np.array(floats))
        values = np.array(values, dtype=float)
    bits = values.view(f"u{values.itemsize}")
    if len(bits) and (bits == bits[0]).all():
        return None, [_text(values[0])], None
    if values.dtype.kind != "f":
        return _column(values.tolist())
    return values.astype(float, copy=False), None, None


def write_table(path, preamble, header, columns):
    """Write each preamble line ending in one ``\\n``, then the header and
    a row per index of ``columns`` (one 1-D sequence per header name)
    ending in ``\\r\\n``: the bytes ``csv.writer`` gives, with every float
    as ``.17g`` and the other cells as ``_text`` says.  Columns of unequal
    length, and a cell ``csv.writer`` would quote, are refused before the
    file is opened.  (A one-column table writes a blank cell as an empty
    line, where ``csv.writer`` writes "".)

    A row is a separator and a fixed-width slot per cell, then ``\\r\\n``.
    The columns from the first to the last that take the kernel share one
    slot width, so a block's float cells are one (rows, columns, 41) view;
    text cells overwrite their slots after the kernel, and a text shared by
    every row outside those columns is laid out once.  Each block of
    ``_BLOCK_ROWS`` rows is written as its kept bytes, so memory stays
    bounded.
    """
    lengths = [len(values) for values in columns]
    if len(columns) != len(header) or len(set(lengths)) != 1:
        raise ValueError(f"need one column for each of the {len(header)} "
                         f"header names, all of one length, got {lengths}")
    head = b",".join(_text(name) for name in header) + b"\r\n"
    floats, texts, where = zip(*(_column(values) for values in columns))
    rows = lengths[0]
    sizes = [None if t is None else np.fromiter(map(len, t), int, len(t))
             for t in texts]
    width = [1 if n is None else int(n.max(initial=1)) for n in sizes]
    span = [j for j, f in enumerate(floats) if f is not None]
    a, b = (span[0], span[-1] + 1) if span else (0, 0)
    if span:
        width[a:b] = [max(_CELL, *width[a:b])] * (b - a)
        floats = [np.broadcast_to(1.0, rows) if f is None else f
                  for f in floats[a:b]]
    ends = np.cumsum([w + 1 for w in width])
    starts = ends - width
    chars = np.empty((min(rows, _BLOCK_ROWS), ends[-1] + 2), dtype=np.uint8)
    kept = np.ones(chars.shape, dtype=bool)
    chars[:, starts - 1] = 44
    chars[:, -2:] = (13, 10)
    kept[:, 0] = False
    cells = {}
    for j, t in enumerate(texts):
        if t is not None:
            # the text at its own width; its keep row spans the whole slot
            text = np.array(t, dtype=bytes)
            text = text.view(np.uint8).reshape(len(t), text.itemsize)
            if len(t) == 1 and not a <= j < b:
                # one text for every row, in slots the kernel never writes
                chars[:, starts[j]:starts[j] + text.shape[1]] = text
                kept[:, starts[j]:ends[j]] = np.arange(width[j]) < sizes[j]
            else:
                cells[j] = (np.broadcast_to(text, (rows, text.shape[1])),
                            np.broadcast_to(sizes[j], rows), where[j])
    with open(path, "wb") as fh:
        for line in preamble:
            fh.write((str(line).rstrip("\n") + "\n").encode())
        fh.write(head)
        for start in range(0, rows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            n = min(_BLOCK_ROWS, rows - start)
            if span:
                view = np.s_[:n, starts[a] - 1:ends[b - 1]]
                shape = (n, b - a, width[a] + 1)
                _format_17g(np.stack([f[block] for f in floats], axis=1),
                            chars[view].reshape(shape)[..., 1:_CELL + 1],
                            kept[view].reshape(shape)[..., 1:_CELL + 1])
                kept[view].reshape(shape)[..., _CELL + 1:] = False
            for j, (text, size, rows_of) in cells.items():
                some = np.s_[:] if rows_of is None else rows_of[block]
                slot = np.s_[:n, starts[j]:ends[j]]
                chars[slot][some, :text.shape[1]] = text[block][some]
                kept[slot][some] = (np.arange(width[j]) < size[block, None])[some]
            fh.write(chars[:n][kept[:n]])
