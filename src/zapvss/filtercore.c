/* The per-sample recursion of the sign-attracted LMS filter and its six
 * step-size controllers, one call per input sequence, and the text of the
 * CSV rows and of the SVG points (see filtercore.py).
 *
 * Every sum over the taps runs in LANES fixed accumulators, lane j taking
 * taps j, j + LANES, ..., the tail included, and the lanes are added in one
 * fixed tree. Every tap is touched by one explicit vector step of LANES
 * doubles, the L % LANES tail too, in zero-padded vectors. With no
 * fast-math and no contraction a result therefore does not depend on the
 * compiler's flags or on the vector width of the target.
 *
 * The clean echo (zap_echo) sums each output over the echo path's nonzero
 * taps in ascending order of the tap, from +0.0, each product and each sum
 * rounded on its own. Its vectors run across samples, never across taps,
 * so that order too does not depend on the vector width. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LANES 8

/* the kinds in the order of stepsize.KINDS */
enum { LMS, FIXED_ZAP, YOU, LIU, PROPOSED_L1, PROPOSED_NORM };

/* one controller's parameters, packed by filtercore.CTL_DTYPE */
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
static const vec ONE = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                 NEGATIVE_ZERO = {-0.0, -0.0, -0.0, -0.0,
                                  -0.0, -0.0, -0.0, -0.0};
static const mask ALL = {-1, -1, -1, -1, -1, -1, -1, -1},
                  LANE = {0, 1, 2, 3, 4, 5, 6, 7};

#define LOAD(p) (*(const vec_at *)(p))
#define STORE(p, v) (*(vec_at *)(p) = (v))
/* 1.0 in the lanes of mask m, +0.0 elsewhere */
#define ONES(m) ((vec)((mask)ONE & (m)))
/* sign (-1, 0 or 1) and fabs (the sign bit cleared) in every lane */
#define VSGN(v) (ONES((v) > 0.0) - ONES((v) < 0.0))
#define VABS(v) ((vec)((mask)(v) & ~(mask)NEGATIVE_ZERO))
#define TREE(a) ((((a)[0] + (a)[1]) + ((a)[2] + (a)[3])) +                  \
                 (((a)[4] + (a)[5]) + ((a)[6] + (a)[7])))

const char *zap_compiler(void) { return __VERSION__; }

/* The update w + mu*e*x - kappa*sign(w) of sample n on the LANES taps from
 * k, of regressor XU, then the reductions of the updated taps against the
 * regressor XD of sample n+1 (and the echo path H at a recorded sample),
 * one tap in each lane. The update is zeroed outside the lanes of LIVE. Two
 * selects stand for products of signs, with the same bits:
 * - kappa is finite and not below zero, so kappa * sign(w) is kappa where
 *   w > 0, -kappa where w < 0 and +0.0 elsewhere (pull holds kappa in every
 *   lane; were kappa -0.0, only the sign of a zero weight could differ,
 *   and a signed zero changes no sum that starts at +0.0);
 * - sign(v) * sign(h) > 0 holds exactly where v and h are both positive or
 *   both negative. */
#define TAPS(k, XU, XD, H, LIVE)                                           \
    do {                                                                   \
        vec w0 = LOAD(w + (k)), x1 = (XD);                                 \
        vec v = w0 + mue * (XU);                                           \
        if (attract)                                                       \
            v -= (vec)(((mask)pull & (w0 > 0.0)) |                         \
                       ((mask)-pull & (w0 < 0.0)));                        \
        v = (vec)((mask)v & (LIVE));                                       \
        STORE(w + (k), v);                                                 \
        xw += v * x1;                                                      \
        if (want_xsxx) { xs += x1 * VSGN(v); xx += x1 * x1; }              \
        if (want_ww) ww += v * v;                                          \
        if (want_ws) ws += VABS(v);                                        \
        if (record) {                                                      \
            vec hk = (H), r = v - hk;                                      \
            dist += r * r;                                                 \
            agree += ONES(((v > 0.0) & (hk > 0.0)) |                       \
                          ((v < 0.0) & (hk < 0.0)));                       \
        }                                                                  \
    } while (0)

/* The flags are constants at every call, so each call site compiles to a
 * loop without the reductions it does not want. The weights are whole
 * vectors, so the tail loads and stores them in place. Its L - k taps of
 * xu, xd and h go into zeroed vectors: a padding lane updates its +0.0
 * weight to +0.0 (the mask keeps a non-finite mu*e from making it NaN)
 * and adds +0.0 to each sum, which changes no bits of an accumulator that
 * starts at +0.0. */
static inline __attribute__((always_inline)) sums
advance(double *restrict w, const double *xu, const double *xd,
        const double *h, double mue, double kappa, int64_t L, int attract,
        int want_xsxx, int want_ww, int want_ws, int record) {
    const vec pull = kappa * ONE;
    vec xw = {0.0}, xs = {0.0}, xx = {0.0}, ww = {0.0}, ws = {0.0},
        dist = {0.0}, agree = {0.0};
    int64_t k = 0;
    for (; k + LANES <= L; k += LANES)
        TAPS(k, LOAD(xu + k), LOAD(xd + k), LOAD(h + k), ALL);
    if (k < L) {
        const size_t tail = (size_t)(L - k) * sizeof(double);
        vec pad_u = {0.0}, pad_d = {0.0}, pad_h = {0.0};
        memcpy(&pad_u, xu + k, tail);
        memcpy(&pad_d, xd + k, tail);
        if (record)
            memcpy(&pad_h, h + k, tail);
        TAPS(k, pad_u, pad_d, pad_h, LANE < L - k);
    }
    return (sums){TREE(xw), TREE(xs), TREE(xx), TREE(ww), TREE(ws),
                  TREE(dist), TREE(agree)};
}

/* the pass of sample n in run_row, with the record flag a constant and a
 * kind's attract, want_xsxx, want_ww and want_ws flags */
#define ADVANCE(...)                                                       \
    (record ? advance(w, xu, xd, h, mue, kappa, L, __VA_ARGS__, 1)         \
            : advance(w, xu, xd, h, mue, kappa, L, __VA_ARGS__, 0))

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

/* ||h|| of the L taps, their squares summed in LANES lanes and TREE as a
 * pass sums, so that no record depends on a BLAS build */
static double norm(const double *h, int64_t L) {
    vec hh = {0.0};
    int64_t k = 0;
    for (; k + LANES <= L; k += LANES) {
        vec v = LOAD(h + k);
        hh += v * v;
    }
    if (k < L) {
        vec pad = {0.0};
        memcpy(&pad, h + k, (size_t)(L - k) * sizeof(double));
        hh += pad * pad;
    }
    return sqrt(TREE(hh));
}

/* One row: controller c on the sequence from zero weights, writing its
 * records every `every` samples from rec on. Returns the sample of the
 * update that made a weight non-finite, N if none did, or -1 if memory ran
 * out. */
static int64_t run_row(int64_t N, int64_t L, const double *xpad,
                       const double *d, int64_t nspans,
                       const int64_t *starts, const double *taps, double mu,
                       const zap_ctl *c, double mse_beta, int64_t every,
                       zap_record *rec) {
    /* whole vectors of weights at a vector's alignment: no load of them
     * spans two cache lines */
    const size_t wbytes = (size_t)((L + LANES - 1) / LANES) * sizeof(vec);
    double *w = aligned_alloc(sizeof(vec), wbytes);
    if (w)
        memset(w, 0, wbytes);
    double *history = c->kind == YOU ? calloc((size_t)c->window, sizeof *history)
                                     : NULL;
    if (!w || (c->kind == YOU && !history)) {
        free(w);
        free(history);
        return -1;
    }
    const double root = sqrt((double)L), xi_scale = (double)L / ((double)L - root),
                 norm_scale = root - 1.0;
    double kappa = c->kappa0, mse = 0.0, detector = 0.0, phi = 0.0;
    int64_t cooldown_left = 0, stop = N;
    /* a pass that leaves the zero weights zero gives their sums with the
     * regressor of sample 0; on zero weights every sum but x.x is +0.0 */
    sums s = advance(w, xpad + N, xpad + N, taps, 0.0, 0.0, L, 1, 1, 1, 1, 0);
    for (int64_t span = 0; span < nspans && stop == N; span++) {
        const double *h = taps + span * L;
        const double hnorm = norm(h, L);
        int64_t end = span + 1 < nspans ? starts[span + 1] : N, active = 0;
        for (int64_t k = 0; k < L; k++)
            active += h[k] != 0.0;
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
    free(w);
    free(history);
    return stop;
}

/* Every controller of ctls (A rows) on one input sequence. xpad holds
 * N + L samples: a zero, the input reversed, L - 1 zeros, so the regressor
 * of sample n starts at xpad + N - n. The echo path is nspans spans from
 * starts[i] with taps taps[i*L:(i+1)*L], of which one or more are
 * nonzero: the records divide by the span's norm and by its count of
 * nonzero taps. Row a writes its n_rec = ceil(N / every) records from
 * rec + a*n_rec on, their n after a stop too, and the sample of its
 * diverging update to stop_at[a] (N if none). Returns 0, or -1 if memory
 * ran out. The smoothed error power forgets at mse_beta. */
int zap_run(int64_t N, int64_t L, const double *xpad, const double *d,
            int64_t nspans, const int64_t *starts, const double *taps,
            double mu, int64_t A, const zap_ctl *ctls, double mse_beta,
            int64_t every, zap_record *rec, int64_t *stop_at) {
    const int64_t n_rec = (N + every - 1) / every;
    int status = 0;
    for (int64_t a = 0; a < A && status == 0; a++) {
        for (int64_t i = 0; i * every < N; i++)
            rec[a * n_rec + i].n = i * every;
        stop_at[a] = run_row(N, L, xpad, d, nspans, starts, taps, mu,
                             ctls + a, mse_beta, every, rec + a * n_rec);
        status = stop_at[a] < 0 ? -1 : 0;
    }
    return status;
}

/* ---- the clean echo ---- */

#define ECHO_TILE 512  /* samples per tile: their sums stay in the L1 cache */

/* y[n] = y[n] + h[k[0]]*x[n - k[0]] + ... + h[k[count-1]]*x[n - k[count-1]],
 * in that order, for a <= n < b, where no k[j] is above a: whole vectors
 * of samples, then one sample at a time, each in the same order */
static inline __attribute__((always_inline)) void
echo_pass(double *restrict y, const double *restrict x, int64_t a, int64_t b,
          const int64_t *k, const double *h, int count) {
    const double *xk[4];
    double hk[4];
    for (int j = 0; j < count; j++) {
        xk[j] = x + (a - k[j]);
        hk[j] = h[k[j]];
    }
    y += a;
    int64_t t = 0;
    for (; t + LANES <= b - a; t += LANES) {
        vec s = LOAD(y + t);
        for (int j = 0; j < count; j++)
            s = s + hk[j] * LOAD(xk[j] + t);
        STORE(y + t, s);
    }
    for (; t < b - a; t++) {
        double s = y[t];
        for (int j = 0; j < count; j++)
            s = s + hk[j] * xk[j][t];
        y[t] = s;
    }
}

/* The clean echo y[start:stop) of the input x through the L >= 1 taps h:
 * y[n] = h[k]*x[n - k] summed over the nonzero taps k in ascending order,
 * from +0.0, with x[m] = 0 for m < 0. A tap k > n is left out of y[n]: its
 * product, +-0.0, would change no bits of a sum that starts at +0.0. The
 * samples go in tiles of ECHO_TILE, whose sums take four taps per pass
 * while all four are at or before the tile's start, then one at a time.
 * Returns 0, or -1 if memory ran out. */
int zap_echo(int64_t start, int64_t stop, int64_t L, const double *x,
             const double *h, double *y) {
    int64_t *nonzero = malloc((size_t)L * sizeof *nonzero), m = 0;
    if (!nonzero)
        return -1;
    for (int64_t k = 0; k < L; k++)
        if (h[k] != 0.0)
            nonzero[m++] = k;
    for (int64_t n0 = start; n0 < stop; n0 += ECHO_TILE) {
        const int64_t n1 = stop - n0 < ECHO_TILE ? stop : n0 + ECHO_TILE;
        memset(y + n0, 0, (size_t)(n1 - n0) * sizeof *y);
        int64_t j = 0;
        for (; j + 4 <= m && nonzero[j + 3] <= n0; j += 4)
            echo_pass(y, x, n0, n1, nonzero + j, h, 4);
        for (; j < m && nonzero[j] < n1; j++)
            echo_pass(y, x, nonzero[j] > n0 ? nonzero[j] : n0, n1,
                      nonzero + j, h, 1);
    }
    free(nonzero);
    return 0;
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

/* ---- SVG points ----
 *
 * "{:.2f}".format(v) of a finite |v| < 2^53, in integers: |v| = m * 2^-shift
 * with shift >= 0, so 100|v| = m * 100 / 2^shift exactly, rounded half to
 * even on the remainder. The sign is kept, so -0.0 and values that round to
 * zero from below give "-0.00". At most 20 characters. */
static char *put_fixed2(char *p, double v) {
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t mantissa = bits & ((1ull << 52) - 1);
    const uint32_t exponent = (uint32_t)((bits >> 52) & 0x7ff);
    const uint64_t m = exponent ? mantissa | (1ull << 52) : mantissa;
    const uint32_t shift = exponent ? 1075 - exponent : 1074;
    const uint64_t t = m * 100;  /* below 2^60 */
    uint64_t q = 0;  /* a shift of 64 or more leaves t below half */
    if (shift == 0) {
        q = t;
    } else if (shift < 64) {
        const uint64_t rest = t & ((1ull << shift) - 1), half = 1ull << (shift - 1);
        q = t >> shift;
        q += rest > half || (rest == half && (q & 1));
    }
    if (bits >> 63)
        *p++ = '-';
    p = put_uint(p, q / 100);
    *p++ = '.';
    memcpy(p, DIGIT_PAIRS + 2 * (q % 100), 2);
    return p + 2;
}

/* "x[0],y[0] x[1],y[1] ..." with each coordinate written by put_fixed2, to
 * out, which holds at least 42 * count bytes. Returns the bytes written, or
 * -1 if a coordinate is not finite or not below 2^53 in magnitude. */
int64_t zap_format_points(int64_t count, const double *x, const double *y,
                          char *out) {
    char *p = out;
    for (int64_t i = 0; i < count; i++) {
        if (!(fabs(x[i]) < 0x1p53 && fabs(y[i]) < 0x1p53))
            return -1;
        if (i > 0)
            *p++ = ' ';
        p = put_fixed2(p, x[i]);
        *p++ = ',';
        p = put_fixed2(p, y[i]);
    }
    return p - out;
}
