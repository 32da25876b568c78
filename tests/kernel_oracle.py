"""Reference check of the r = 3 distance kernel against direct evaluation."""

import numpy as np

from fibered_lrc.lrc_code import _r3_curve_tables, _r3_scan_prefixes


def zero_grid_agreement(es, gm) -> int:
    """Cross-check the histogram kernel against direct symbol evaluation.

    For every x-block prefix (a0, a1, a2) in lex order, counts the zeros of
    each (u, v) tail by evaluating all n symbols from the generator matrix
    columns (the naive grid), then requires

    * the histogram of the per-point curves to match it cell by cell, and
    * ``_r3_scan_prefixes`` on that one prefix to return the grid's maximum
      with its least argmax as witness, the library's tie-break.

    Raises AssertionError on the first disagreement; returns prefixes checked.
    """
    fld = es.field
    q = fld.order
    tabs = fld.np_tables()
    ADD, MUL = tabs["ADD"], tabs["MUL"]
    tables = _r3_curve_tables(es)
    t1, t2, fib, xa_v, _alpha, AU, NMB = tables
    c_idx = np.arange(len(xa_v), dtype=np.int64)
    u_flat = np.arange(q, dtype=np.int64)[None, :] * q
    rows = [np.asarray(row, dtype=np.int64) for row in gm.rows]
    uv = np.arange(q, dtype=np.int64)
    prefixes = [(1, *divmod(pre, q)) for pre in range(q * q)]
    prefixes += [(0, 1, a2) for a2 in range(q)]
    prefixes.append((0, 0, 1))
    for a0, a1, a2 in prefixes:
        # kernel grid: histogram of per-point curves
        av = np.empty(len(t1), dtype=np.int64)
        for f in range(len(t1)):
            av[f] = ADD[ADD[a0, MUL[a1, t1[f]]], MUL[a2, t2[f]]]
        f0 = MUL[xa_v, av[fib]]
        val = ADD[f0[:, None], AU]
        vi = NMB[c_idx[:, None], val].astype(np.int64)
        kernel_grid = np.bincount((u_flat + vi).ravel(), minlength=q * q)
        # naive grid: per-point symbol evaluation over the whole (u, v) plane
        naive_grid = np.zeros(q * q, dtype=np.int64)
        base = ADD[ADD[MUL[a0, rows[0]], MUL[a1, rows[1]]], MUL[a2, rows[2]]]
        for pnt in range(es.n):
            ucontrib = MUL[rows[3][pnt], uv]
            vcontrib = MUL[rows[4][pnt], uv]
            grid = ADD[ADD[base[pnt], ucontrib][:, None], vcontrib[None, :]]
            naive_grid += (grid.ravel() == 0)
        assert np.array_equal(kernel_grid, naive_grid), (a0, a1, a2)
        # the library kernel on this single prefix
        pre = a1 * q + a2
        (zeros, msg), cand, done = _r3_scan_prefixes(
            es, tables, a0, pre, pre + 1, 1, None)
        u, v = divmod(int(naive_grid.argmax()), q)
        assert (zeros, msg, cand, done) == (
            int(naive_grid.max()), (a0, a1, a2, u, v), q * q, True), (a0, a1, a2)
    return len(prefixes)
