"""Reference check of the r = 3 distance kernel against direct evaluation."""

import numpy as np

from fibered_lrc.lrc_code import _r3_scan_prefixes


def prefix_agreement(es, gm, prefix) -> None:
    """Cross-check the kernel on one x-block prefix (a0, a1, a2).

    Counts the zeros of every (u, v) tail by evaluating all n symbols from
    the generator matrix rows (the naive grid), then requires
    ``_r3_scan_prefixes`` on that one prefix to return the grid's maximum
    with its least argmax as witness, the library's tie-break.  Raises
    AssertionError on a disagreement.
    """
    fld = es.field
    q = fld.order
    tabs = fld.np_tables()
    ADD, MUL = tabs["ADD"], tabs["MUL"]
    rows = [np.asarray(row, dtype=np.int64) for row in gm.rows]
    uv = np.arange(q, dtype=np.int64)
    a0, a1, a2 = prefix
    naive_grid = np.zeros(q * q, dtype=np.int64)
    base = ADD[ADD[MUL[a0, rows[0]], MUL[a1, rows[1]]], MUL[a2, rows[2]]]
    for pnt in range(es.n):
        ucontrib = MUL[rows[3][pnt], uv]
        vcontrib = MUL[rows[4][pnt], uv]
        grid = ADD[ADD[base[pnt], ucontrib][:, None], vcontrib[None, :]]
        naive_grid += (grid.ravel() == 0)
    pre = a1 * q + a2
    (zeros, msg), cand, done = _r3_scan_prefixes(es, a0, pre, pre + 1, 1, None)
    u, v = divmod(int(naive_grid.argmax()), q)
    assert (zeros, msg, cand, done) == (
        int(naive_grid.max()), (a0, a1, a2, u, v), q * q, True), prefix


def zero_grid_agreement(es, gm) -> int:
    """Run ``prefix_agreement`` on every x-block prefix in lex order.

    Returns the number of prefixes checked.
    """
    q = es.field.order
    prefixes = [(1, *divmod(pre, q)) for pre in range(q * q)]
    prefixes += [(0, 1, a2) for a2 in range(q)]
    prefixes.append((0, 0, 1))
    for prefix in prefixes:
        prefix_agreement(es, gm, prefix)
    return len(prefixes)
