/* The per-sample recursion of the sign-attracted LMS filter and its six
 * step-size controllers, one call per input sequence, and the text of the
 * CSV rows (see filtercore.py).
 *
 * Every sum over the taps runs in two accumulator vectors of LANES lanes:
 * the vector of taps k, ..., k + LANES - 1 adds into accumulator
 * (k / LANES) % 2, the zero-padded vector of the L % LANES tail too; the
 * two are added lane by lane, and the lanes in one fixed tree. Each
 * product-sum term, a * b + acc, and the update w + (mu*e)*x are one fused
 * multiply-add per lane, rounded once (FMA); every other operation is
 * rounded on its own. Every tap is touched by one explicit vector step of
 * LANES doubles. With no fast-math and no contraction beyond those explicit
 * FMAs, a result therefore does not depend on the compiler's flags or on
 * the vector width of the target. Nor does it depend on AVX-512: there
 * each product of signs in the step is one instruction (vfixupimmpd or a
 * masked add), which gives the bits of the generic compare and bit
 * operations that every other target compiles, and a pass that records
 * nothing and sums x.w alone takes x(n+1)'s vectors by an exact rotation
 * (see advance).
 *
 * The clean echo (zap_echo) sums each output over the echo path's nonzero
 * taps in ascending order of the tap, from +0.0, each product and each sum
 * rounded on its own. Its vectors run across samples, never across taps,
 * so that order too does not depend on the vector width. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* GCC 12 turns the lane loop of FMA into two 256-bit halves and shuffles
 * unless it prefers 512-bit vectors, where the target has them; that
 * preference exists on x86 only */
#if defined(__x86_64__) && !defined(__clang__)
#pragma GCC target("prefer-vector-width=512")
#endif

#define LANES 8

/* the kinds in the order of stepsize.KINDS */
enum { LMS, FIXED_ZAP, YOU, LIU, PROPOSED_L1, PROPOSED_NORM };

/* one controller's parameters, packed by filtercore.CTL_DTYPE: the kind and
 * xi, then the int keys and the float keys of stepsize.PARAMS, each in the
 * table's order */
typedef struct {
    int64_t kind, xi, window, cooldown;
    double kappa0, eta, kappa_min, beta, tolerance, lambda, alpha, gamma,
        kappa_max, w2_floor;
} zap_ctl;

/* one recorded row, filtercore.SAMPLE_DTYPE */
typedef struct {
    int64_t n;
    double misalignment_db, kappa, error, sign_agreement, smoothed_mse;
} zap_record;

/* the reductions of one pass: the next sample's x.w, x.sign(w), x.x, w.w
 * and ||w||_1, and at a recorded sample ||w - h||^2 and the count of taps
 * where sign(w) matches a nonzero sign(h) */
typedef struct {
    double xw, xs, xx, ww, ws, dist, agree;
} sums;

/* LANES taps, or LANES accumulators; a comparison of two gives a mask, -1
 * in the lanes where it holds and 0 elsewhere. A vector never crosses a
 * call (the ABI of a wide vector argument depends on the target), so the
 * operations on them are macros. */
typedef double vec __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t mask __attribute__((vector_size(LANES * sizeof(double))));
/* LANES doubles at any double's address */
typedef double vec_at __attribute__((vector_size(LANES * sizeof(double)),
                                     aligned(sizeof(double)), may_alias));

/* these and TREE spell out the LANES = 8 lanes */
static const vec ONE = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
static const mask ALL = {-1, -1, -1, -1, -1, -1, -1, -1},
                  LANE = {0, 1, 2, 3, 4, 5, 6, 7},
                  SIGN = {INT64_MIN, INT64_MIN, INT64_MIN, INT64_MIN,
                          INT64_MIN, INT64_MIN, INT64_MIN, INT64_MIN};

#define LOAD(p) (*(const vec_at *)(p))
#define STORE(p, v) (*(vec_at *)(p) = (v))
/* The products of signs of the step (see TAPS), in every lane: VSGN(v),
 * sign(v) as -1.0, +0.0 or 1.0, and +0.0 for NaN; COUNT(acc, v), acc plus
 * 1.0 where v > 0 and plus +0.0 elsewhere. The generic forms are one
 * compare and bit operations. Under AVX-512 each is one instruction after
 * its compare, if any, and gives the same bits:
 * - vfixupimmpd writes the constant that its table gives v's class:
 *   0xA9A9A888 holds, from the lowest nibble, +0.0 (8) for QNaN, SNaN and
 *   +-0, 1.0 (A) for 1.0, -1.0 (9) for -inf, 1.0 for +inf, -1.0 for the
 *   other negative and 1.0 for the other positive values. A subnormal has
 *   its sign's value, as in the compares; under DAZ both read it as zero;
 * - the masked add keeps acc where v > 0 fails, as adding +0.0 does to a
 *   count, which is never -0.0. */
#ifdef __AVX512F__
#include <immintrin.h>
#define VSGN(v)                                                            \
    ((vec)_mm512_fixupimm_pd((__m512d)(v), (__m512d)(v),                   \
                             _mm512_set1_epi64(0xA9A9A888), 0))
#define COUNT(acc, v)                                                      \
    ((vec)_mm512_mask_add_pd(                                              \
        (__m512d)(acc),                                                    \
        _mm512_cmp_pd_mask((__m512d)(v), _mm512_setzero_pd(), _CMP_GT_OQ), \
        (__m512d)(acc), (__m512d)ONE))
#define FAST 1  /* see advance */
/* lane 7 of before, then lanes 0-6 of v: one valignq */
#define ROTATE(v, before)                                                  \
    ((vec)_mm512_alignr_epi64((__m512i)(v), (__m512i)(before), 7))
#else
/* 1.0 in the lanes of mask m, +0.0 elsewhere */
#define ONES(m) ((vec)((mask)ONE & (m)))
/* the lanes where v is neither zero nor NaN: one ordered compare */
#define NONZERO(v) (((v) > 0.0) | ((v) < 0.0))
#define VSGN(v) ((vec)(((mask)ONE | ((mask)(v) & SIGN)) & NONZERO(v)))
#define COUNT(acc, v) ((acc) + ONES((v) > 0.0))
/* ROTATE spells the same lanes portably */
#define FAST 0
#define ROTATE(v, before)                                                  \
    __builtin_shufflevector(before, v, 7, 8, 9, 10, 11, 12, 13, 14)
#endif
/* fabs (the sign bit cleared) in every lane */
#define VABS(v) ((vec)((mask)(v) & ~SIGN))
#define TREE(a) ((((a)[0] + (a)[1]) + ((a)[2] + (a)[3])) +                  \
                 (((a)[4] + (a)[5]) + ((a)[6] + (a)[7])))
/* a * b + c in every lane, rounded once: __builtin_fma, which the compiler
 * turns into one vector fused multiply-add where the target has one and
 * into calls of libm's correctly rounded fma where it has none, so every
 * build gives the same bits */
#define FMA(a, b, c)                                                       \
    ({                                                                     \
        vec a_ = (a), b_ = (b), c_ = (c);                                  \
        for (int j_ = 0; j_ < LANES; j_++)                                 \
            c_[j_] = __builtin_fma(a_[j_], b_[j_], c_[j_]);                \
        c_;                                                                \
    })

const char *zap_compiler(void) { return __VERSION__; }

/* The update w + mu*e*x - kappa*sign(w) of sample n on the LANES taps from
 * k, of regressor XU, then the reductions of the updated taps against the
 * regressor XD of sample n+1 (and the echo path H and its signs S at a
 * recorded sample), one tap in each lane, into accumulator A of each sum.
 * The update is zeroed outside the lanes of LIVE. The products of signs
 * are VSGN and COUNT, each of which gives the product's bits:
 * - t - kappa * sign(w0), t = w0 + mu*e*x, is FMA(-pull, VSGN(w0), t)
 *   (pull holds kappa, finite and not below zero, in every lane): the
 *   product is exact, so the difference is rounded once; -pull * (+0.0)
 *   = -0.0 keeps t's bits where w0 is zero, or NaN, whose t is NaN. Only a
 *   kappa of -0.0 could change a zero weight's sign, which changes no sum;
 * - x * sign(v) multiplies x by VSGN(v), so that an infinite x times a zero
 *   sign stays NaN;
 * - sign(v) * sign(h) > 0 holds exactly where v * S > 0, S = sign(h) being
 *   -1.0, +0.0 or 1.0: times +-1 is exact, and times +0.0 gives +-0.0 or
 *   NaN, neither of which is above 0. COUNT adds 1.0 in those lanes. */
#define TAPS(A, k, XU, XD, H, S, LIVE)                                     \
    do {                                                                   \
        vec w0 = LOAD(w + (k)), x1 = (XD);                                 \
        vec v = FMA(step, (XU), w0);                                       \
        if (attract)                                                       \
            v = FMA(-pull, VSGN(w0), v);                                   \
        v = (vec)((mask)v & (LIVE));                                       \
        STORE(w + (k), v);                                                 \
        xw[A] = FMA(v, x1, xw[A]);                                         \
        if (want_xsxx) {                                                   \
            xs[A] = FMA(x1, VSGN(v), xs[A]);                               \
            xx[A] = FMA(x1, x1, xx[A]);                                    \
        }                                                                  \
        if (want_ww) ww[A] = FMA(v, v, ww[A]);                             \
        if (want_ws) ws[A] += VABS(v);                                     \
        if (record) {                                                      \
            vec r = v - (H);                                               \
            dist[A] = FMA(r, r, dist[A]);                                  \
            agree[A] = COUNT(agree[A], v * (S));                           \
        }                                                                  \
    } while (0)

/* the whole vector of taps from k, into accumulator A; last holds x(n)'s
 * vector before it */
#define FULL(A, k)                                                         \
    do {                                                                   \
        vec u = LOAD(xu + (k));                                            \
        TAPS(A, k, u, rotate ? ROTATE(u, last) : (vec)LOAD(xd + (k)),     \
             LOAD(h + (k)), LOAD(sg + (k)), ALL);                          \
        last = u;                                                          \
    } while (0)

/* the two accumulators of a sum, added lane by lane, then over the lanes */
#define TOTAL(a) TREE((a)[0] + (a)[1])

/* The flags are constants at every call, so each call site compiles to a
 * loop without the reductions it does not want. One more, rotate, which
 * ADVANCE derives from them for a pass that records nothing where FAST
 * (AVX-512, on which it was measured faster), holds wherever the pass sums
 * x.w alone, which leaves it bound by its loads: FULL then takes x(n+1)'s
 * vector from k, xd[k + j] = xu[k + j - 1], out of x(n)'s vectors by one
 * exact lane rotation instead of one more unaligned load.
 * The accumulator of the vector from k is a constant at each step: the
 * loop takes the vectors in pairs. The weights are whole vectors, so the
 * tail loads and stores them in place. Its L - k taps of xu, xd, h and sg
 * go into zeroed vectors, in a rotating pass too: a padding lane updates
 * its +0.0 weight to +0.0 (the mask keeps a non-finite mu*e from making it
 * NaN) and adds +0.0 * +0.0 or +0.0 to each sum, which changes no bits of
 * an accumulator that starts at +0.0. */
static inline __attribute__((always_inline)) sums
advance(double *restrict w, const double *xu, const double *xd,
        const double *h, const double *sg, double mue, double kappa,
        int64_t L, int attract, int want_xsxx, int want_ww, int want_ws,
        int record, int rotate) {
    const vec pull = kappa * ONE, step = mue * ONE;
    vec xw[2] = {{0.0}}, xs[2] = {{0.0}}, xx[2] = {{0.0}}, ww[2] = {{0.0}},
        ws[2] = {{0.0}}, dist[2] = {{0.0}}, agree[2] = {{0.0}};
    /* lane 7 is xd[0], the tap before the first vector of xu */
    vec last = xd[0] * ONE;
    int64_t k = 0;
    for (; k + 2 * LANES <= L; k += 2 * LANES) {
        FULL(0, k);
        FULL(1, k + LANES);
    }
    if (k + LANES <= L) {
        FULL(0, k);
        k += LANES;
    }
    if (k < L) {
        const size_t tail = (size_t)(L - k) * sizeof(double);
        vec pad_u = {0.0}, pad_d = {0.0}, pad_h = {0.0}, pad_s = {0.0};
        memcpy(&pad_u, xu + k, tail);
        memcpy(&pad_d, xd + k, tail);
        if (record) {
            memcpy(&pad_h, h + k, tail);
            memcpy(&pad_s, sg + k, tail);
        }
        if (k / LANES % 2)
            TAPS(1, k, pad_u, pad_d, pad_h, pad_s, LANE < L - k);
        else
            TAPS(0, k, pad_u, pad_d, pad_h, pad_s, LANE < L - k);
    }
    return (sums){TOTAL(xw), TOTAL(xs), TOTAL(xx), TOTAL(ww), TOTAL(ws),
                  TOTAL(dist), TOTAL(agree)};
}

/* the pass of sample n in run_row, with the record flag a constant and a
 * kind's attract, want_xsxx, want_ww and want_ws flags, from which its
 * rotate flag follows (see advance) */
#define ADVANCE(attract, xsxx, ww, ws)                                     \
    (record ? advance(w, xu, xd, h, sg, mue, kappa, L, attract, xsxx, ww,  \
                      ws, 1, 0)                                            \
            : advance(w, xu, xd, h, sg, mue, kappa, L, attract, xsxx, ww,  \
                      ws, 0, FAST && !((xsxx) || (ww) || (ws))))

static int all_finite(const double *w, int64_t L) {
    for (int64_t k = 0; k < L; k++)
        if (!isfinite(w[k]))
            return 0;
    return 1;
}

/* kappa <- (1-alpha)*kappa + alpha*gamma*delta, clamped to [0, kappa_max];
 * a NaN drive leaves kappa at 0 */
static double smooth(const zap_ctl *c, double kappa, double delta) {
    double k = (1.0 - c->alpha) * kappa + (c->alpha * c->gamma) * delta;
    return fmin(fmax(0.0, k), c->kappa_max);
}

/* |e * x.sign(w)| / (x.x); the 0/0 of a zero regressor yields 0 */
static double l1_delta(double e, double xx, double xs) {
    return fmax(fabs(e * xs) / xx, 0.0);
}

/* ||h|| of the L taps, their squares summed in the accumulators, FMAs and
 * TOTAL of a pass, so that no record depends on a BLAS build */
static double norm(const double *h, int64_t L) {
    vec hh[2] = {{0.0}};
    int64_t k = 0;
    for (; k + LANES <= L; k += LANES) {
        vec v = LOAD(h + k);
        hh[k / LANES % 2] = FMA(v, v, hh[k / LANES % 2]);
    }
    if (k < L) {
        vec pad = {0.0};
        memcpy(&pad, h + k, (size_t)(L - k) * sizeof(double));
        hh[k / LANES % 2] = FMA(pad, pad, hh[k / LANES % 2]);
    }
    return sqrt(TOTAL(hh));
}

/* the doubles of the whole vectors that hold n */
#define WHOLE(n) (((n) + LANES - 1) / LANES * LANES)
/* you's sample n < N takes slot n % window: never more than N slots */
#define SLOTS(c, N) ((c)->window < (N) ? (c)->window : (N))

/* One row: controller c on the sequence from zero weights, writing its
 * records every `every` samples from rec on, in zap_run's scratch, whose
 * parts it zeroes. Returns the sample of the update that made a weight
 * non-finite, N if none did. */
static int64_t run_row(int64_t N, int64_t L, const double *xpad,
                       const double *d, int64_t nspans,
                       const int64_t *starts, const double *taps, double mu,
                       const zap_ctl *c, double mse_beta, int64_t every,
                       zap_record *rec, double *scratch) {
    /* whole vectors at a vector's alignment: no load spans two cache lines */
    double *w = scratch, *sg = w + WHOLE(L), *history = sg + WHOLE(L);
    memset(w, 0, (size_t)WHOLE(L) * sizeof *w);
    if (c->kind == YOU)
        memset(history, 0, (size_t)SLOTS(c, N) * sizeof *history);
    const double root = sqrt((double)L), xi_scale = (double)L / ((double)L - root),
                 norm_scale = root - 1.0;
    double kappa = c->kappa0, mse = 0.0, detector = 0.0, phi = 0.0;
    int64_t cooldown_left = 0, stop = N;
    /* on zero weights x.w, x.sign(w), w.w and ||w||_1 are +0.0; x.x only
     * divides |e * x.sign(w)| = 0, and l1_delta gives +0.0 for any x.x */
    sums s = {.xw = 0.0};
    for (int64_t span = 0; span < nspans && stop == N; span++) {
        const double *h = taps + span * L;
        const double hnorm = norm(h, L);
        int64_t end = span + 1 < nspans ? starts[span + 1] : N, active = 0;
        for (int64_t k = 0; k < L; k++) {
            sg[k] = (h[k] > 0.0) - (h[k] < 0.0);
            active += h[k] != 0.0;
        }
        for (int64_t n = starts[span]; n < end; n++) {
            /* the regressor [x(n), ..., x(n-L+1)] */
            const double *xu = xpad + (N - n), *xd = xu - 1;
            double e = d[n] - s.xw;
            /* a finite w whose dot product overflowed gives a non-finite
             * error too; it diverges one update later */
            if (!isfinite(e) && !all_finite(w, L)) {
                stop = n - 1;
                break;
            }
            const int record = n % every == 0;
            const double mue = mu * e;
            /* the kind's kappa, then its pass */
            switch (c->kind) {
            case LMS:
                s = ADVANCE(0, 0, 0, 0);
                break;
            case YOU: {
                double *slot = history + n % c->window;
                detector = (1.0 - c->beta) * detector + c->beta * e * e;
                int cooling = cooldown_left > 0;
                cooldown_left -= cooling;
                /* a full window first, and a zero slot never fires */
                if (n >= c->window && !cooling &&
                    fabs(detector - *slot) / *slot < c->tolerance) {
                    cooldown_left = c->cooldown;
                    if (kappa > c->kappa_min)
                        kappa *= c->eta;
                }
                *slot = detector;
            }
            /* fall through */
            case FIXED_ZAP:  /* and you's pass */
                s = ADVANCE(1, 0, 0, 0);
                break;
            case LIU: {
                double j = s.ws;
                if (c->xi) {
                    double xi = xi_scale * (1.0 - j / (root * sqrt(s.ww)));
                    /* the zero vector's xi is 0/0: it drives nothing */
                    j = fmin(1.0, fmax(0.0, xi));
                }
                double delta = j - phi;
                phi = (1.0 - c->lambda) * phi + c->lambda * j;
                kappa = smooth(c, kappa, delta);
                s = ADVANCE(1, 0, 1, 1);
                break;
            }
            case PROPOSED_L1:
                kappa = smooth(c, kappa, l1_delta(e, s.xx, s.xs));
                s = ADVANCE(1, 1, 0, 0);
                break;
            default: {  /* PROPOSED_NORM */
                double r = sqrt(s.ww);
                double m = (r >= c->w2_floor || r != r) ? r : c->w2_floor;
                kappa = smooth(c, kappa, l1_delta(e, s.xx, s.xs) / (m * norm_scale));
                s = ADVANCE(1, 1, 1, 0);
            }
            }
            mse = (1.0 - mse_beta) * mse + (mse_beta * e) * e;
            if (record) {
                zap_record *r = rec + n / every;
                r->misalignment_db = 20.0 * log10(sqrt(s.dist) / hnorm);
                r->kappa = kappa;
                r->error = e;
                r->sign_agreement = s.agree / (double)active;
                r->smoothed_mse = mse;
            }
        }
    }
    if (stop == N && !all_finite(w, L))
        stop = N - 1;
    return stop;
}

/* Every controller of ctls (A rows) on one input sequence. xpad holds
 * N + L samples: a zero, the input reversed, L - 1 zeros, so the regressor
 * of sample n starts at xpad + N - n. The echo path is nspans spans from
 * starts[i] with taps taps[i*L:(i+1)*L], of which one or more are
 * nonzero: the records divide by the span's norm and by its count of
 * nonzero taps. Row a writes its n_rec = ceil(N / every) records from
 * rec + a*n_rec on, their n after a stop too, and the sample of its
 * diverging update to stop_at[a] (N if none). The rows share one block of
 * scratch. Returns 0, or -1 if memory ran out. The smoothed error power
 * forgets at mse_beta. */
int zap_run(int64_t N, int64_t L, const double *xpad, const double *d,
            int64_t nspans, const int64_t *starts, const double *taps,
            double mu, int64_t A, const zap_ctl *ctls, double mse_beta,
            int64_t every, zap_record *rec, int64_t *stop_at) {
    const int64_t n_rec = (N + every - 1) / every;
    int64_t slots = 0;
    for (int64_t a = 0; a < A; a++)
        if (ctls[a].kind == YOU && SLOTS(ctls + a, N) > slots)
            slots = SLOTS(ctls + a, N);
    double *scratch = aligned_alloc(
        sizeof(vec), (size_t)(2 * WHOLE(L) + WHOLE(slots)) * sizeof *scratch);
    if (!scratch)
        return -1;
    for (int64_t a = 0; a < A; a++) {
        for (int64_t i = 0; i * every < N; i++)
            rec[a * n_rec + i].n = i * every;
        stop_at[a] = run_row(N, L, xpad, d, nspans, starts, taps, mu, ctls + a,
                             mse_beta, every, rec + a * n_rec, scratch);
    }
    free(scratch);
    return 0;
}

/* ---- the clean echo ---- */

/* h[k[j]]*x[n - k[j]] summed from +0.0 over j = 0, 1, ... while k[j] <= n */
static double echo_at(int64_t n, const int64_t *k, int64_t m, const double *x,
                      const double *h) {
    double s = 0.0;
    for (int64_t j = 0; j < m && k[j] <= n; j++)
        s = s + h[k[j]] * x[n - k[j]];
    return s;
}

/* The clean echo y[start:stop) of the input x through the taps h, whose
 * nonzero taps are k[0] < ... < k[m-1]: y[n] = h[k]*x[n - k] summed over
 * those k in ascending order, from +0.0, with x[i] = 0 for i < 0. A tap
 * k > n is left out of y[n]: its product, +-0.0, would change no bits of a
 * sum that starts at +0.0. From the last nonzero tap on, blocks of
 * 4 * LANES samples take the taps in that order, one sample in each lane. */
void zap_echo(int64_t start, int64_t stop, const int64_t *k, int64_t m,
              const double *x, const double *h, double *y) {
    const int64_t full = m > 0 ? k[m - 1] : 0;
    int64_t n = start;
    for (; n < stop && n < full; n++)
        y[n] = echo_at(n, k, m, x, h);
    for (; n + 4 * LANES <= stop; n += 4 * LANES) {
        vec s0 = {0.0}, s1 = {0.0}, s2 = {0.0}, s3 = {0.0};
        for (int64_t j = 0; j < m; j++) {
            const double hj = h[k[j]], *xj = x + (n - k[j]);
            s0 = s0 + hj * LOAD(xj);
            s1 = s1 + hj * LOAD(xj + LANES);
            s2 = s2 + hj * LOAD(xj + 2 * LANES);
            s3 = s3 + hj * LOAD(xj + 3 * LANES);
        }
        STORE(y + n, s0);
        STORE(y + n + LANES, s1);
        STORE(y + n + 2 * LANES, s2);
        STORE(y + n + 3 * LANES, s3);
    }
    for (; n < stop; n++)
        y[n] = echo_at(n, k, m, x, h);
}

/* ---- CSV rows ----
 *
 * A double is written as the shortest decimal that parses back to it, laid
 * out as Python's repr(float) lays it out. The digits come from Ryu (Ulf
 * Adams, "Ryu: fast float-to-string conversion", PLDI 2018): the interval of
 * decimals that round to the double is scaled by a 128-bit approximation of
 * a power of 5, and digits are removed while the interval still holds a
 * shorter decimal; of the shortest, the one nearest the double is taken,
 * ties to even. The power-of-5 tables are computed with exact integers by
 * filtercore.py and copied in by zap_format_init. */

#define POW5_BITCOUNT 125  /* filtercore.POW5_BITCOUNT */

typedef unsigned __int128 u128;

/* POW5_INV[q] = floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1 for q < 342 and
 * POW5[i] = 5^i scaled to 125 bits (truncated) for i < 326, as (low, high)
 * words; a double reads q <= 290 and i <= 325 */
static uint64_t POW5_INV[342][2], POW5[326][2];
/* "00", "01", ..., "99", and POW10[i] = 10^i */
static char DIGIT_PAIRS[200];
static uint64_t POW10[20];

void zap_format_init(const uint64_t *pow5_inv, const uint64_t *pow5) {
    memcpy(POW5_INV, pow5_inv, sizeof POW5_INV);
    memcpy(POW5, pow5, sizeof POW5);
    for (int i = 0; i < 100; i++) {
        DIGIT_PAIRS[2 * i] = (char)('0' + i / 10);
        DIGIT_PAIRS[2 * i + 1] = (char)('0' + i % 10);
    }
    POW10[0] = 1;
    for (int i = 1; i < 20; i++)
        POW10[i] = 10 * POW10[i - 1];
}

/* bitlen(5^e) for 0 <= e <= 3528 */
static inline int32_t pow5bits(int32_t e) {
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(log10(2^e)) for 0 <= e <= 1650 */
static inline uint32_t log10_pow2(int32_t e) {
    return ((uint32_t)e * 78913) >> 18;
}

/* floor(log10(5^e)) for 0 <= e <= 2620 */
static inline uint32_t log10_pow5(int32_t e) {
    return ((uint32_t)e * 732923) >> 20;
}

static inline int multiple_of_pow5(uint64_t v, uint32_t p) {
    uint32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

static inline int multiple_of_pow2(uint64_t v, uint32_t p) {
    return (v & ((1ull << p) - 1)) == 0;
}

static inline uint64_t mul_shift(uint64_t m, const uint64_t mul[2], int32_t j) {
    u128 b0 = (u128)m * mul[0], b2 = (u128)m * mul[1];
    return (uint64_t)(((b0 >> 64) + b2) >> (j - 64));
}

/* The shortest decimal *digits * 10^*exp10 that rounds to the finite,
 * nonzero double of these fields. It has no trailing zero: one digit less
 * would then lie in the interval too. */
static void shortest(uint64_t mantissa, uint32_t exponent, uint64_t *digits,
                     int32_t *exp10) {
    int32_t e2;
    uint64_t m2;
    /* two more bits for the bounds */
    if (exponent == 0) {
        e2 = 1 - 1023 - 52 - 2;
        m2 = mantissa;
    } else {
        e2 = (int32_t)exponent - 1023 - 52 - 2;
        m2 = (1ull << 52) | mantissa;
    }
    /* round-half-even parsing reaches the bounds of an even mantissa */
    const int accept_bounds = (m2 & 1) == 0;
    const uint64_t mv = 4 * m2;
    /* the lower bound is nearer when the mantissa is a power of two */
    const uint32_t mm_shift = mantissa != 0 || exponent <= 1;
    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        const uint32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t i = -e2 + (int32_t)q + POW5_BITCOUNT + pow5bits((int32_t)q) - 1;
        e10 = (int32_t)q;
        vr = mul_shift(mv, POW5_INV[q], i);
        vp = mul_shift(mv + 2, POW5_INV[q], i);
        vm = mul_shift(mv - 1 - mm_shift, POW5_INV[q], i);
        if (q <= 21) {
            /* at most one of mv, mp and mm is a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - (int32_t)q;
        const int32_t j = (int32_t)q - (pow5bits(i) - POW5_BITCOUNT);
        e10 = (int32_t)q + e2;
        vr = mul_shift(mv, POW5[i], j);
        vp = mul_shift(mv + 2, POW5[i], j);
        vm = mul_shift(mv - 1 - mm_shift, POW5[i], j);
        if (q <= 1) {
            /* mv = 4 * m2 has at least two trailing zero bits */
            vr_zeros = 1;
            if (accept_bounds)
                vm_zeros = mm_shift == 1;
            else
                --vp;
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }
    int32_t removed = 0;
    uint64_t out;
    if (vm_zeros || vr_zeros) {
        /* the rare general case: the bounds or the value may be exact */
        uint32_t last = 0;
        while (vp / 10 > vm / 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_zeros)
            while (vm % 10 == 0) {
                vr_zeros &= last == 0;
                last = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;  /* exactly half way: round to even */
        out = vr + ((vr == vm && (!accept_bounds || !vm_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        out = vr + (vr == vm || round_up);
    }
    *digits = out;
    *exp10 = e10 + removed;
}

/* the eight decimal digits of v < 10^8 at p, in two independent halves */
static inline void eight_digits(char *p, uint32_t v) {
    const uint32_t hi = v / 10000, lo = v % 10000;
    memcpy(p, DIGIT_PAIRS + 2 * (hi / 100), 2);
    memcpy(p + 2, DIGIT_PAIRS + 2 * (hi % 100), 2);
    memcpy(p + 4, DIGIT_PAIRS + 2 * (lo / 100), 2);
    memcpy(p + 6, DIGIT_PAIRS + 2 * (lo % 100), 2);
}

/* the decimal digits of v, the last one just before end */
static inline void digits_before(char *end, uint64_t v) {
    while (v >= 100000000) {
        end -= 8;
        eight_digits(end, (uint32_t)(v % 100000000));
        v /= 100000000;
    }
    uint32_t w = (uint32_t)v;
    while (w >= 100) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (w % 100), 2);
        w /= 100;
    }
    if (w >= 10)
        memcpy(end - 2, DIGIT_PAIRS + 2 * w, 2);
    else
        end[-1] = (char)('0' + w);
}

/* the number of decimal digits of v, one for 0 */
static inline int digit_count(uint64_t v) {
    /* 1233 / 4096 ~ log10(2): n is the count or one less. v | 1 counts 0 as
     * one digit and compares with an even 10^n as v does. */
    int n = ((64 - __builtin_clzll(v | 1)) * 1233) >> 12;
    return n + ((v | 1) >= POW10[n]);
}

static char *put_uint(char *p, uint64_t v) {
    int n = digit_count(v);
    digits_before(p + n, v);
    return p + n;
}

static char *put_int(char *p, int64_t v) {
    if (v < 0) {
        *p++ = '-';
        return put_uint(p, -(uint64_t)v);
    }
    return put_uint(p, (uint64_t)v);
}

/* repr(v), at most 24 characters */
static char *put_double(char *p, double v) {
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t mantissa = bits & ((1ull << 52) - 1);
    const uint32_t exponent = (uint32_t)((bits >> 52) & 0x7ff);
    if (exponent == 0x7ff) {
        if (mantissa) {
            memcpy(p, "nan", 3);
            return p + 3;
        }
        if (bits >> 63)
            *p++ = '-';
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    uint64_t digits;
    int32_t exp10;
    shortest(mantissa, exponent, &digits, &exp10);
    const int n = digit_count(digits);
    /* the value is 0.d1d2...dn * 10^point */
    const int32_t point = exp10 + n;
    if (point <= -4 || point > 16) {
        /* d1.d2...dn, the digits first written one place to the right */
        digits_before(p + 1 + n, digits);
        p[0] = p[1];
        if (n > 1) {
            p[1] = '.';
            p += n + 1;
        } else {
            p += 1;
        }
        int32_t e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e < 10)
            *p++ = '0';
        return put_uint(p, (uint64_t)e);
    }
    if (point <= 0) {
        memcpy(p, "0.000", (size_t)(2 - point));
        p += 2 - point;
        digits_before(p + n, digits);
        return p + n;
    }
    if (point < n) {
        /* the digits one place to the right, then the first point moved back */
        digits_before(p + 1 + n, digits);
        memmove(p, p + 1, (size_t)point);
        p[point] = '.';
        return p + n + 1;
    }
    digits_before(p + n, digits);
    p += n;
    memset(p, '0', (size_t)(point - n));
    p += point - n;
    memcpy(p, ".0", 2);
    return p + 2;
}

/* Rows r = 0..rows-1 of "<prefix><n[r]>,<v[0][r]>,...,<v[cols-1][r]>\n",
 * n[r] read at byte offset r * n_stride of n and v[j][r] at r * strides[j]
 * of columns[j] (strided reads take the fields of a record array in
 * place), written to out, which holds at least rows * (plen + 21 + 25 *
 * cols) bytes. Returns the bytes written. A value with the bits of the one
 * above it in its column copies that one's text: equal bits give equal
 * text, so only changed values run Ryu. */
int64_t zap_format_rows(const char *prefix, int64_t plen, int64_t rows,
                        const char *n, int64_t n_stride, int64_t cols,
                        const char *const *columns, const int64_t *strides,
                        char *out) {
    /* the bits and the text of each column's value in the row above */
    const int64_t c = cols > 0 ? cols : 1;
    uint64_t above_bits[c];
    const char *above[c];
    size_t above_len[c];
    char *p = out;
    for (int64_t r = 0; r < rows; r++) {
        int64_t nr;
        memcpy(&nr, n + r * n_stride, sizeof nr);
        memcpy(p, prefix, (size_t)plen);
        p = put_int(p + plen, nr);
        for (int64_t j = 0; j < cols; j++) {
            uint64_t bits;
            memcpy(&bits, columns[j] + r * strides[j], sizeof bits);
            *p++ = ',';
            if (r > 0 && bits == above_bits[j]) {
                memcpy(p, above[j], above_len[j]);
            } else {
                double v;
                memcpy(&v, &bits, sizeof v);
                above_len[j] = (size_t)(put_double(p, v) - p);
                above_bits[j] = bits;
            }
            above[j] = p;
            p += above_len[j];
        }
        *p++ = '\n';
    }
    return p - out;
}
