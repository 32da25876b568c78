"""The step-by-step field build, digit-wise field addition, the elements
in canonical order, the scalar orbit catalog, direct-evaluation checks of
the encoder and kernels, the fiber check rows one formula at a time, the
simulation draws of numpy's Generator, and the one-trial-at-a-time
simulator."""

import itertools
from functools import reduce
from itertools import combinations, product

import numpy as np

from fibered_lrc.construction import NiceOrbit, NoNiceElements, specialize_P
from fibered_lrc.gf import _prime_factors, digits
from fibered_lrc.lrc_code import (DistanceResult, _better, _default_chunk,
                                  _r3_pencils, _r3_scan_prefixes, basis, encode,
                                  generator_matrix)
from fibered_lrc.recovery import repair
from fibered_lrc.simulate import RepairMismatch, SimReport


def _walk_tables(p: int, m: int, modulus: tuple[int, ...], gen: int,
                 step):
    """(gen, EXP, LOG, NEG) as lists, EXP and LOG filled by walking
    v -> step[v] = gen * v from 1."""
    q = p ** m
    powers, cur = [], 1
    for _ in range(q - 1):
        powers.append(cur)
        cur = step[cur]
    log = [2 * (q - 1)] * q
    for k, v in enumerate(powers):
        log[v] = k
    if log.count(2 * (q - 1)) > 1:
        raise RuntimeError("generator order check failed")
    # EXP, grown in place (no temporary lists of 4q entries): gen^i for
    # i < 2(q - 1), then zeros
    powers.extend(powers)
    powers.extend(itertools.repeat(0, 2 * q - 1))
    return gen, powers, log, [powers[k + (q - 1) // 2] for k in log]


def _prime_field(p: int, modulus: tuple[int, int]):
    cofactors = [(p - 1) // ell for ell in _prime_factors(p - 1)]
    gen = next(g for g in range(1, p)
               if all(pow(g, e, p) != 1 for e in cofactors))
    return _walk_tables(p, 1, modulus, gen, [v * gen % p for v in range(p)])


def _extension_field(fp, m: int, modulus: tuple[int, ...]):
    from fibered_lrc.poly import poly, pow_mod, x_poly

    p, q = fp.p, fp.p ** m
    f, one = poly(fp, modulus), poly(fp, [1])
    cofactors = [(q - 1) // ell for ell in _prime_factors(q - 1)]
    # generator: least element (construction ordering) of order q-1
    for coeffs in itertools.product(range(p), repeat=m):
        g = poly(fp, coeffs)
        if not g.is_zero and all(pow_mod(g, e, f) != one for e in cofactors):
            break
    # row k of the matrix of multiplication by g holds the digits of g X^k
    rows, row = [], g
    for _ in range(m):
        rows.append(row.coeffs + (0,) * (m - len(row.coeffs)))
        row = row * x_poly(fp) % f
    place = p ** np.arange(m, dtype=np.int64)
    step = (digits(np.arange(q), p, m) @ np.array(rows) % p @ place).tolist()
    gen = sum(c * p**i for i, c in enumerate(g.coeffs))
    return _walk_tables(p, m, modulus, gen, step)


def scalar_nice_orbits(params) -> tuple[NiceOrbit, ...]:
    """The orbit catalog by one scalar walk: A = P_0 evaluated with
    ``eval_at`` at each x outside {0, 1}, each x bucketed by its s."""
    fld, r = params.field, params.r
    rp1 = r + 1
    a = specialize_P(params, 0)
    buckets: dict[int, list[int]] = {}
    for x in elements(fld):
        if x not in (0, 1):
            s = fld.div(fld.neg(a.eval_at(x)), fld.mul(x, fld.sub(x, 1)))
            buckets.setdefault(s, []).append(x)
    step = (fld.order - 1) // rp1
    orbits: list[NiceOrbit] = []
    for s, roots in buckets.items():
        if len(roots) == rp1 and s != 0 and fld.log(s) % rp1 == 0:
            k = fld.log(s) // rp1
            members = tuple(fld.from_log(k + j * step) for j in range(rp1))
            orbits.append(NiceOrbit(members[0], members, tuple(roots)))
    if not orbits:
        raise NoNiceElements(f"no nice elements in {fld.label} for r={r}")
    orbits.sort(key=lambda ob: order_key(fld, ob.representative))
    return tuple(orbits)


def elements(fld):
    """All elements in canonical order (zero, then powers of gen)."""
    yield 0
    yield from (fld.from_log(k) for k in range(fld.order - 1))


def order_key(fld, a: int) -> int:
    """Canonical element ordering: zero first, then discrete-log index."""
    return -1 if a == 0 else fld.log(a)


def digit_add(fld, a, b) -> int:
    """a + b by adding the base-p digits of the encodings mod p."""
    p = fld.p
    out, mult = 0, 1
    while a or b:
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def digit_neg(fld, a) -> int:
    """-a by negating the base-p digits of the encoding mod p."""
    p = fld.p
    out, mult = 0, 1
    while a:
        out += ((p - a % p) % p) * mult
        a //= p
        mult *= p
    return out


def vertical_check_rows(fld, roots, i: int):
    """(β, α) for root i of a vertical fiber: with w_k = 1/(x_k·∏_(l≠k)(x_k -
    x_l)), the spare check β_k = w_k·(x_k - x_i) and the value row
    α_k = -w_k/w_i, each with its own entry 0."""
    w = [fld.inv(reduce(fld.mul, (fld.sub(xk, x) for x in roots if x != xk), xk))
         for xk in roots]
    beta = [fld.mul(wk, fld.sub(xk, roots[i])) for wk, xk in zip(w, roots)]
    alpha = [fld.neg(fld.div(wk, w[i])) for wk in w]
    alpha[i] = 0
    return tuple(beta), tuple(alpha)


def horizontal_check_row(fld, zeta: int, rp1: int, j: int) -> tuple[int, ...]:
    """-ζ^(k-j) for index j of a horizontal fiber, its own entry 0."""
    row = [fld.neg(fld.pow(zeta, k - j)) for k in range(rp1)]
    row[j] = 0
    return tuple(row)


def naive_encode(es, message) -> tuple[int, ...]:
    """The codeword by definition: Σ m_(i,j)·x^i·t^j at each point."""
    fld = es.field
    terms = [(c, i, j) for c, (i, j) in zip(message, basis(es.r)) if c]
    word = []
    xs, _, ts = es.xyt.tolist()
    for x, t in zip(xs, ts):
        acc = 0
        for c, i, j in terms:
            xt = fld.mul(fld.pow(x, i), fld.pow(t, j))
            acc = fld.add(acc, fld.mul(c, xt))
        word.append(acc)
    return tuple(word)


def naive_generic_search(es, budget) -> DistanceResult:
    """The scalar class-by-class search: lead position, then the tail in
    base q, each class weighed by ``naive_encode``, stopping at budget."""
    q = es.field.order
    k = len(basis(es.r))
    best = (-1, None)
    enumerated = 0
    exact = True
    for lead in range(k):
        if exact:
            for tail in product(range(q), repeat=k - 1 - lead):
                if budget is not None and enumerated >= budget:
                    exact = False
                    break
                msg = (0,) * lead + (1,) + tail
                best = _better(naive_encode(es, msg).count(0), msg, *best)
                enumerated += 1
    zeros, msg = best
    return DistanceResult(es.n - zeros, msg, exact, enumerated)


def dense_tables(fld):
    """q x q addition and multiplication tables (int32), ADD[a, b] = a + b.

    Addition adds base-p digits mod p; multiplication reads the scalar
    log tables.  Neither goes through the vector arithmetic of
    ``FieldSpec.vsum``/``vmul``, which the kernels use.
    """
    p, q = fld.p, fld.order
    digits = np.arange(q, dtype=np.int32)
    add = np.zeros((q, q), dtype=np.int32)
    for i in range(fld.m):
        digit = digits % p
        add += (digit[:, None] + digit[None, :]) % p * p**i
        digits //= p
    log = np.array([fld.log(a) for a in range(1, q)], dtype=np.int32)
    exp = np.array([fld.from_log(k) for k in range(2 * q - 3)], dtype=np.int32)
    mul = np.zeros((q, q), dtype=np.int32)
    mul[1:, 1:] = exp[log[:, None] + log[None, :]]
    return add, mul


def naive_zero_grid(es, gm, prefix) -> np.ndarray:
    """Zeros of every message (a0, a1, a2, u, v) of one x-block prefix.

    Evaluates all n symbols from the generator matrix rows for each tail
    (u, v) with ``dense_tables``; returns the q² counts, indexed by u·q + v.
    """
    fld = es.field
    q = fld.order
    ADD, MUL = dense_tables(fld)
    rows = [np.asarray(row, dtype=np.int64) for row in gm.rows]
    uv = np.arange(q, dtype=np.int64)
    a0, a1, a2 = prefix
    grid = np.zeros(q * q, dtype=np.int64)
    base = ADD[ADD[MUL[a0, rows[0]], MUL[a1, rows[1]]], MUL[a2, rows[2]]]
    for pnt in range(es.n):
        ucontrib = MUL[rows[3][pnt], uv]
        vcontrib = MUL[rows[4][pnt], uv]
        sym = ADD[ADD[base[pnt], ucontrib][:, None], vcontrib[None, :]]
        grid += (sym.ravel() == 0)
    return grid


def prefix_agreement(es, gm, prefix) -> None:
    """Cross-check the kernel on one x-block prefix (a0, a1, a2).

    Requires ``_r3_scan_prefixes`` on that one prefix to return the
    maximum of its naive zero grid with the least argmax as witness, the
    library's tie-break.  Raises AssertionError on a disagreement.
    """
    q = es.field.order
    grid = naive_zero_grid(es, gm, prefix)
    a0, a1, a2 = prefix
    pre = a1 * q + a2
    (zeros, msg), cand, done = _r3_scan_prefixes(es, a0, pre, pre + 1, 1, None)
    u, v = divmod(int(grid.argmax()), q)
    assert (zeros, msg, cand, done) == (
        int(grid.max()), (a0, a1, a2, u, v), q * q, True), prefix


def scan_reference(es, gm, a0, lo, hi, chunk, budget):
    """What ``_r3_scan_prefixes(es, a0, lo, hi, chunk, budget)`` returns.

    Walks the prefixes a0, divmod(pre, q) for pre in range(lo, hi) in
    chunks, stopping before a chunk once chunks·chunk·q² classes reach the
    budget, and weighs each prefix by its naive zero grid.  The best is
    the most zeros, then the lexicographically least message.
    """
    q = es.field.order
    found = []
    done = 0
    for s in range(lo, hi, chunk):
        if budget is not None and done * q * q >= budget:
            break
        for pre in range(s, min(s + chunk, hi)):
            prefix = (a0, *divmod(pre, q))
            grid = naive_zero_grid(es, gm, prefix)
            found.append((int(grid.max()),
                          (*prefix, *divmod(int(grid.argmax()), q))))
            done += 1
    best = (-1, None)
    if found:
        zeros = max(z for z, _ in found)
        best = (zeros, min(msg for z, msg in found if z == zeros))
    return best, done * q * q, lo + done == hi


def dense_scan_prefixes(es, a0val, lo, hi, chunk, budget_left):
    """The dense counter: what ``_r3_scan_prefixes`` returns, by bins.

    Scan x-block prefixes a0 = a0val, (a1, a2) = divmod(range(lo, hi), q).

    One prefix a(t) covers the q² tails (u, v).  The symbol at point
    c = (x̄, t̄) vanishes on the line u + t̄·v = k_c = -a(t̄)/x̄.  Lines of one
    fiber are parallel and coincide when a(t̄) = 0; lines c, c' with
    t̄ < t̄' cross once, at v = (k_c - k_c')·(t̄ - t̄')⁻¹, a linear form
    a0·E0 + a1·E1 + a2·E2 in the prefix, the E_e built once.  Blocks of at
    most `chunk` prefixes stop at multiples of q, so a0·E0 + a1·E1 is one
    row per block.  A point (u, v) has as zeros the weights (r+1 if
    a(t̄) = 0, else 1) of the fibers whose lines pass through it.  Each
    crossing is counted once, on line c, by one bincount over g·n·q bins
    per block of g prefixes: on the least-t̄ line through a point, count +
    weight is all its zeros, on the others at most that.  So the best per
    prefix and the set of best points are those of counting each crossing
    on both lines.  The least best point is the witness, sought only when
    a block beats the best so far: a later prefix loses every tie.  The
    budget, checked before each chunk, admits ⌈budget_left / (chunk·q²)⌉
    chunks.  Returns (best, candidates, completed).
    """
    fld, q, n = es.field, es.field.order, es.n
    NEG, INV = (fld.np_tables()[name] for name in ("NEG", "INV"))
    tc, nix = es.xyt[2], NEG[INV[es.xyt[0]]]
    tt = fld.vmul(tc, tc)
    ci, cj = np.nonzero(tc[:, None] < tc[None, :])
    ke = np.stack([nix, fld.vmul(tc, nix), fld.vmul(tt, nix)])  # k = Σ a·ke
    e0, e1, e2 = fld.vmul(fld.vsum(ke[:, ci], NEG[ke][:, cj]),
                          INV[fld.vsum(tc[ci], NEG[tc[cj]])])
    ends = ci * q + (np.arange(chunk) * (n * q))[:, None]
    stop = hi if budget_left is None else min(
        hi, lo + max(0, -(-budget_left // (chunk * q * q))) * chunk)
    best = (-1, None)
    s = lo
    while s < stop:
        a1, first = divmod(s, q)
        a2 = np.arange(first, min(first + chunk, q, first + stop - s))
        g, s = len(a2), s + len(a2)
        at = fld.vsum(a0val, fld.vmul(a1, tc), fld.vmul(a2[:, None], tt))
        row = fld.vsum(fld.vmul(a0val, e0), fld.vmul(a1, e1))
        flat = fld.vsum(row, fld.vmul(a2[:, None], e2)) + ends[:g]
        counts = None  # frees the last block's bins before these are made
        counts = np.bincount(flat.ravel(), minlength=g * n * q).reshape(g, n, q)
        w = np.where(at == 0, es.r + 1, 1)
        zmax = (counts.max(axis=2) + w).max(axis=1)
        gb = int(zmax.argmax())
        if zmax[gb] <= best[0]:
            continue
        cs, vs = np.nonzero(counts[gb] + w[gb, :, None] == zmax[gb])
        us = fld.vsum(fld.vmul(at[gb, cs], nix[cs]), NEG[fld.vmul(tc[cs], vs)])
        u, v = divmod(int((us * q + vs).min()), q)
        best = int(zmax[gb]), (a0val, a1, int(a2[gb]), u, v)
    return best, (stop - lo) * q * q, stop == hi


def _rank(fld, rows) -> int:
    """Rank over F_q of a list of rows, by scalar Gauss-Jordan elimination."""
    mat = [list(row) for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = fld.inv(mat[rank][col])
        mat[rank] = [fld.mul(inv, v) for v in mat[rank]]
        for r2 in range(len(mat)):
            if r2 != rank and mat[r2][col]:
                c = mat[r2][col]
                mat[r2] = [
                    fld.sub(v, fld.mul(c, w)) for v, w in zip(mat[r2], mat[rank])
                ]
        rank += 1
        if rank == len(mat):
            break
    return rank


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


def _normalized(fld, msg):
    lead = fld.inv(next(m for m in msg if m))
    return tuple(fld.mul(lead, m) for m in msg)


def pencil_agreement(es, gm, triple, images=((1, 1),)) -> None:
    """Cross-check the pencil kernel on one triple of point indices.

    Solves the generator columns of the three points for every member
    (u, v) of their pencil, (1, v) and (0, 1), by Cramer's rule on the
    x-block, counts each member's zeros by encoding it, and requires
    ``_r3_pencils`` on that one triple to return the naive maximum and the
    least normalized image f^(w)(x, z·t), (w, z) in images, of a message
    reaching it: each coefficient of x^i·t^j goes to c^w·z^j, by scalar
    powers.  Raises AssertionError on a disagreement.
    """
    fld = es.field
    q = fld.order
    add, sub, mul = fld.add, fld.sub, fld.mul
    cols = [[row[c] for row in gm.rows] for c in triple]

    def det3(m):
        return sub(sub(add(add(mul(m[0][0], mul(m[1][1], m[2][2])),
                               mul(m[0][1], mul(m[1][2], m[2][0]))),
                           mul(m[0][2], mul(m[1][0], m[2][1]))),
                       add(mul(m[0][2], mul(m[1][1], m[2][0])),
                           mul(m[0][0], mul(m[1][2], m[2][1])))),
                   mul(m[0][1], mul(m[1][0], m[2][2])))

    mat = [col[:3] for col in cols]
    inv = fld.inv(det3(mat))
    members = []
    for u, v in [(1, v) for v in range(q)] + [(0, 1)]:
        rhs = [fld.neg(add(mul(u, col[3]), mul(v, col[4]))) for col in cols]
        a = [mul(inv, det3([row[:i] + [rhs[k]] + row[i + 1:]
                            for k, row in enumerate(mat)]))
             for i in range(3)]
        word = encode(gm, (*a, u, v))
        assert all(word[c] == 0 for c in triple), (triple, u, v)
        members.append((word.count(0), _normalized(fld, (*a, u, v))))
    best = max(zeros for zeros, _ in members)
    least = min(_normalized(fld, tuple(fld.mul(fld.pow(c, w), fld.pow(z, j))
                                       for c, (_, j) in zip(msg, basis(3))))
                for zeros, msg in members if zeros == best for w, z in images)
    assert _r3_pencils(es, np.reshape(triple, (1, 3, 1)), images) \
        == (best, least), triple


def unreduced_pencil_search(es):
    """What ``_r3_pencil_search`` returns, searching every fiber triple.

    The fibers are the points grouped by t̄; each pair of fibers gives
    the message killing both whole, and each block of fiber triples goes
    through ``_r3_pencils`` with no images, so no ζ-orbit is skipped.
    """
    fld = es.field
    t = es.xyt[2]
    fibers = np.argsort(t, kind="stable").reshape(-1, es.r + 1)
    tf = t[fibers[:, 0]].tolist()
    best = (-1, None)
    for t1, t2 in combinations(tf, 2):
        inv = fld.inv(fld.mul(t1, t2))
        msg = (1, fld.neg(fld.mul(fld.add(t1, t2), inv)), inv, 0, 0)
        best = _better(2 * (es.r + 1), msg, *best)
    ftri = np.asarray(list(combinations(range(len(tf)), 3)))
    per = (1 << 15) // (es.n * (es.r + 1) ** 3) or 1
    for s in range(0, len(ftri), per):
        best = _better(*_r3_pencils(es, fibers[ftri[s:s + per]]), *best)
    return best


def scan_distance(es, gm):
    """(d, witness) by the full prefix scan plus the x²-block classes.

    The prefixes a0 = 1 and (0, 1) go through ``_r3_scan_prefixes``; the
    q + 1 classes (0, 0, 0, 1, v) and (0, 0, 0, 0, 1), whose first nonzero
    coordinate lies in the x²-block, are encoded directly.
    """
    q = es.field.order
    chunk = _default_chunk(q, es.n)
    best = (-1, None)
    for a0, lo, hi in ((1, 0, q * q), (0, q, 2 * q), (0, 1, 2)):
        sub, _, done = _r3_scan_prefixes(es, a0, lo, hi, chunk, None)
        assert done
        best = _better(*sub, *best)
    for msg in [(0, 0, 0, 1, v) for v in range(q)] + [(0, 0, 0, 0, 1)]:
        best = _better(encode(gm, msg).count(0), msg, *best)
    return es.n - best[0], best[1]


def generator_draws(seed, trials, k, q, nodes, f):
    """(trials, k) messages and (trials, f) picks, one trial at a time from
    numpy's ``Generator(PCG64(seed))``: ``integers(0, q, size=k)``, then
    ``choice(nodes, size=f, replace=False)``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    msgs = np.empty((trials, k), dtype=np.int64)
    picks = np.empty((trials, f), dtype=np.int64)
    for trial in range(trials):
        msgs[trial] = rng.integers(0, q, size=k)
        picks[trial] = rng.choice(nodes, size=f, replace=False)
    return msgs, picks


def reference_simulation(scenario) -> SimReport:
    """`run_simulation` one trial at a time: draw, encode, erase, repair."""
    es = scenario.es
    fld = es.field
    gm = generator_matrix(es)
    rng = np.random.Generator(np.random.PCG64(scenario.seed))
    nodes = scenario.node_count

    symbols_on = {}
    for pos, node in enumerate(scenario.node_of):
        symbols_on.setdefault(node, []).append(pos)
    node_ids = sorted(symbols_on)

    repaired_counts, unrecovered_counts = [], []
    hist = {"V": 0, "H": 0}
    for _ in range(scenario.trials):
        message = [int(v) for v in rng.integers(0, fld.order, size=gm.k)]
        cw = encode(gm, message)
        picked = rng.choice(nodes, size=scenario.failures, replace=False)
        erased = [pos for node in picked for pos in symbols_on[node_ids[node]]]
        holed = list(cw)
        for pos in erased:
            holed[pos] = None
        res = repair(es, holed)
        for pos in erased:
            if res.codeword[pos] not in (None, cw[pos]):
                raise RepairMismatch(
                    f"symbol at position {pos} repaired to a wrong value")
        for path in res.paths.values():
            hist[path] += 1
        repaired_counts.append(len(res.paths))
        unrecovered_counts.append(len(res.unrecovered))

    successes = sum(1 for u in unrecovered_counts if u == 0)
    return SimReport(
        failures=scenario.failures,
        trials=scenario.trials,
        seed=scenario.seed,
        nodes=nodes,
        repaired_per_trial=tuple(repaired_counts),
        unrecovered_per_trial=tuple(unrecovered_counts),
        success_rate=successes / scenario.trials,
        reads_per_repair=es.r,
        path_histogram=hist,
    )
