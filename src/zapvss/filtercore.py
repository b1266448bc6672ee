"""The batched filter recursion: the sign-attracted LMS update of many runs
(rows) advanced sample by sample in one loop, with their recorded metrics."""

from __future__ import annotations

import math

import numpy as np

from .stepsize import KINDS

MSE_BETA = 0.01  # smoothing constant for the recorded error power
# one recorded row of a run trace; a run's trace is an array of these
SAMPLE_DTYPE = np.dtype([("n", np.int64), ("misalignment_db", np.float64),
                         ("kappa", np.float64), ("error", np.float64),
                         ("sign_agreement", np.float64),
                         ("smoothed_mse", np.float64)])


def run_rows(x, d, spans, mu: float, ctls, every: int):
    """Every controller of ``ctls`` on each of the S input sequences ``x``
    (S, N), with the desired signal ``d`` (N, S), in one per-sample loop
    over (sequence, controller, tap) arrays. Each controller advances S
    rows. ``spans`` is the echo path as ``(start, stop, taps)`` slices
    covering [0, N). Per sample: regressor, a-priori error, controller
    kappa, the update w + mu*e*x - kappa*sign(w) from zero weights, then
    the metrics of the updated weights against the taps of the span, every
    ``every`` samples. Returns, per controller, its rows' records (ceil(N /
    every), S) of SAMPLE_DTYPE and the sample (S,) of each row's diverging
    update, N for a row that never diverged.

    The update of a sequence's rows is one BLAS product, which accumulates
    mu*e*x - kappa*sign(w) before adding it to w; its last digits depend on
    the BLAS kernel. Rows never interact: a row's records do not depend on
    which other rows share the batch or where. Each sample computes every
    row reduction a controller reads once, over the rows whose controllers
    read it. The rows whose kappa is a constant 0 skip the attractor and
    take their signs only at the recorded samples. A diverged row rests at
    zero from then on.
    """
    S, N = x.shape
    L, A = spans[0][2].size, len(ctls)
    # each input reversed and zero-padded: the regressor
    # [x(n), ..., x(n-L+1)] of sample n is the slice xrev[:, N-1-n:N-1-n+L]
    xrev = np.zeros((S, N + L - 1))
    xrev[:, :N] = x[:, ::-1]
    d = d[:, :, None]
    # engine order: the rows that attract lead, in the order of KINDS so
    # that the readers of a reduction sit together; the others follow
    kinds = list(KINDS)
    order = sorted(range(A), key=lambda a: (not ctls[a].attracts,
                                            kinds.index(ctls[a].kind)))
    ctls = [ctls[a] for a in order]
    R = sum(c.attracts for c in ctls)

    w = np.zeros((S, A, L))
    # per sequence Z = [x; sign(w) of each row] and C = [mu*e, -kappa on
    # the diagonal of the attracting rows]: every row's update is
    # C @ Z[:1+R]. numpy hands a one-row product to gemv, which rounds
    # unlike gemm: a spare zero row keeps a lone row's trace what it is in
    # a larger grid
    Z = np.zeros((S, 1 + A, L))
    reg, sgn, z_att = Z[:, :1], Z[:, 1:], Z[:, :1 + R]
    C = np.zeros((S, max(A, 2), 1 + R))
    c_mue, c_kappa = C[:, :A, 0], np.einsum("sii->si", C[:, :R, 1:])
    upd = np.empty((S, max(A, 2), L))
    tmp = upd[:, :A]
    kappa, e, e2, mse = (np.zeros((S, A)) for _ in range(4))
    # numpy charges less for an operation between two small arrays than
    # for one with a Python float
    mu_rows, beta_rows, forget_rows = (np.full((S, A), c) for c in
                                       (mu, MSE_BETA, 1.0 - MSE_BETA))
    e_flat, ones = e.reshape(-1), np.ones(A * S)
    # the reductions the controllers read, each computed once per sample:
    # x.x and x.sign(w) up to the last reader in one vecdot against Z,
    # w.w and w.sign(w) over the rows from the first reader to the last
    xz = np.zeros((S, 1 + A))
    red = {"xx": xz[:, 0], "xs": xz[:, 1:], "ww": np.zeros((S, A)),
           "ws": np.zeros((S, A))}
    readers = {r: [i for i, c in enumerate(ctls) if r in c.reads] for r in red}
    xz_rows = (2 + readers["xs"][-1] if readers["xs"] else
               1 if readers["xx"] else 0)
    reduce = []
    for name, right in (("ww", w), ("ws", sgn)):
        if readers[name]:
            rows = slice(readers[name][0], readers[name][-1] + 1)
            reduce.append((w[:, rows], right[:, rows], red[name][:, rows]))
    updates = []
    for i, ctl in enumerate(ctls):
        kappa[:, i] = ctl.kappa
        ctl.kappa = kappa[:, i]  # updates rewrite it in place: the engine reads it
        ctl.bind(L)
        if ctl.spec.update is not None:  # a constant kappa costs nothing
            updates.append((ctl.update, (e[:, i],) + tuple(
                red[r] if r == "xx" else red[r][:, i] for r in ctl.reads)))
    live = np.ones((S, A), dtype=bool)
    stop_at = np.full((S, A), N)
    rec = np.zeros((-(-N // every), S, A), dtype=SAMPLE_DTYPE)
    rec["n"] = np.arange(0, N, every)[:, None, None]
    # the recorded squared distance ||w - h||^2 and twice the sign-match
    # count become dB and a fraction after the loop, with the span's ||h||
    # and active-tap count
    rec_dist, rec_kappa, rec_e, rec_agree, rec_mse = (
        rec[f] for f in SAMPLE_DTYPE.names[1:])
    w_att, sgn_att, kappa_att = w[:, :R], sgn[:, :R], kappa[:, :R]
    w_hold, sgn_hold = w[:, R:], sgn[:, R:]

    # a diverging row passes through inf and NaN on its own until its stop
    # leaves it at rest: a NaN sign would reach every row of its sequence
    # through the product's zero coefficients
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start, stop, h in spans:
            # h on every row: a same-shape subtraction beats a broadcast one
            h_rows = np.broadcast_to(h, w.shape).copy()
            active = np.flatnonzero(h)
            h_sign = np.sign(h[active])
            for n in range(start, stop):
                reg[:, 0] = xrev[:, N - 1 - n:N - 1 - n + L]
                np.vecdot(w, reg, out=e)
                np.subtract(d[n], e, out=e)
                if not math.isfinite(e_flat.dot(ones)):  # inf and NaN propagate
                    _stop_diverged(w, live & ~np.isfinite(e), live, stop_at,
                                   n - 1, sgn, e, mu_rows)
                if xz_rows:
                    np.vecdot(Z[:, :xz_rows], reg, out=xz[:, :xz_rows])
                for left, right, out in reduce:
                    np.vecdot(left, right, out=out)
                for update, args in updates:
                    update(*args)
                np.multiply(mu_rows, e, out=c_mue)
                np.negative(kappa_att, out=c_kappa)
                np.matmul(C, z_att, out=upd)
                w += tmp
                np.sign(w_att, out=sgn_att)
                np.multiply(beta_rows, e, out=e2)
                e2 *= e
                mse *= forget_rows
                mse += e2
                if n % every == 0:
                    i = n // every
                    np.sign(w_hold, out=sgn_hold)
                    np.subtract(w, h_rows, out=tmp)
                    np.vecdot(tmp, tmp, out=rec_dist[i])
                    rec_kappa[i] = kappa
                    rec_e[i] = e
                    # on the active taps, sgn.sign(h) + sgn.sgn counts
                    # each match twice and each mismatch or zero not at all
                    s = sgn if active.size == L else sgn[:, :, active]
                    np.add(np.vecdot(s, h_sign), np.vecdot(s, s), out=rec_agree[i])
                    rec_mse[i] = mse
        _stop_diverged(w, live, live, stop_at, N - 1)
        for start, stop, h in spans:
            rows = slice(-(-start // every), -(-stop // every))
            mis = rec_dist[rows]
            np.sqrt(mis, out=mis)
            mis /= float(np.linalg.norm(h))
            np.log10(mis, out=mis)
            mis *= 20.0
            rec_agree[rows] /= 2 * np.count_nonzero(h)
    return [(rec[:, :, i], stop_at[:, i]) for i in map(order.index, range(A))]


def _stop_diverged(w, suspect, live, stop_at, n, *rest) -> None:
    """Stop the ``suspect`` rows whose weights are non-finite after the
    update of sample n, and zero their rows of ``w`` and of each of
    ``rest``.

    A non-finite error only makes a row suspect: a finite w whose dot
    product overflowed gives one too, and diverges one update later.
    """
    rows = np.nonzero(suspect)
    bad = ~np.isfinite(w[rows]).all(axis=-1)
    rows = tuple(r[bad] for r in rows)
    stop_at[rows] = n
    live[rows] = False
    for a in (w,) + rest:
        a[rows] = 0.0
