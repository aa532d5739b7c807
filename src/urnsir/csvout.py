"""The one CSV row writer of the time-indexed outputs.

Every row starts with its stored time as ``%.10g``, and every line ends in
``\\r\\n``, byte for byte what ``csv.writer`` writes for the same fields.
The constant columns of a stored time are formatted once per call into a
row template; each stored time is then one C-level ``%`` fill and one
write, so only one stored time's text is held at once.
"""

from __future__ import annotations

import numpy as np


def write_time_rows(path, header, cells, blocks) -> None:
    """Write ``header``, then the rows of each ``(t, values)`` in ``blocks``.

    ``cells`` holds one printf template per row of a stored time, for
    example ``"0.5,%.12g,%.12g"``; the row is the time, a comma and that
    template filled in order from ``values`` flattened in C order.
    """
    body = "".join(f"\0,{c}\r\n" for c in cells)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, values in blocks:
            rows = body.replace("\0", "%.10g" % t)
            fh.write(rows % tuple(np.ravel(values).tolist()))
