/* The per-sample recursion of the sign-attracted LMS filter and its six
 * step-size controllers, one call per input sequence (see filtercore.py).
 *
 * Every sum over the taps runs in LANES fixed accumulators, lane j taking
 * taps j, j + LANES, ..., the tail included, and the lanes are added in one
 * fixed tree. With no fast-math and no contraction a result therefore does
 * not depend on the compiler's flags or on vectorization. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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

/* the reductions of one pass: the next sample's x.w, x.sign(w), w.w and
 * ||w||_1, and at a recorded sample ||w - h||^2 and the count of taps
 * where sign(w) matches a nonzero sign(h) */
typedef struct {
    double xw, xs, ww, ws, dist, agree;
} sums;

const char *zap_compiler(void) { return __VERSION__; }

static inline double sgn(double v) {
    return (v > 0.0 ? 1.0 : 0.0) - (v < 0.0 ? 1.0 : 0.0);
}

static inline double tree(const double a[LANES]) {
    return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
}

static double dot(const double *a, const double *b, int64_t L) {
    double acc[LANES] = {0.0};
    int64_t k = 0;
    for (; k + LANES <= L; k += LANES)
        for (int j = 0; j < LANES; j++)
            acc[j] += a[k + j] * b[k + j];
    for (int j = 0; k + j < L; j++)
        acc[j] += a[k + j] * b[k + j];
    return tree(acc);
}

/* One tap of a pass: the update w + mu*e*x - kappa*sign(w) of sample n,
 * then the reductions of the updated tap against the regressor of sample
 * n+1 (and the echo path at a recorded sample) into lane j. */
#define TAP(k, j)                                                          \
    do {                                                                   \
        double v = w[k] + mue * xu[k];                                     \
        if (attract) v -= kappa * sgn(w[k]);                               \
        w[k] = v;                                                          \
        xw[j] += v * xd[k];                                                \
        if (want_xs) xs[j] += xd[k] * sgn(v);                              \
        if (want_ww) ww[j] += v * v;                                       \
        if (want_ws) ws[j] += fabs(v);                                     \
        if (record) {                                                      \
            double r = v - h[k];                                           \
            dist[j] += r * r;                                              \
            agree[j] += sgn(v) * sgn(h[k]) > 0.0 ? 1.0 : 0.0;             \
        }                                                                  \
    } while (0)

/* The flags are constants at every call, so each call site compiles to a
 * loop without the reductions it does not want. */
static inline __attribute__((always_inline)) sums
advance(double *restrict w, const double *xu, const double *xd,
        const double *h, double mue, double kappa, int64_t L, int attract,
        int want_xs, int want_ww, int want_ws, int record) {
    double xw[LANES] = {0.0}, xs[LANES] = {0.0}, ww[LANES] = {0.0},
           ws[LANES] = {0.0}, dist[LANES] = {0.0}, agree[LANES] = {0.0};
    int64_t k = 0;
    for (; k + LANES <= L; k += LANES)
        for (int j = 0; j < LANES; j++)
            TAP(k + j, j);
    for (int j = 0; k + j < L; j++)
        TAP(k + j, j);
    return (sums){tree(xw), tree(xs), tree(ww), tree(ws), tree(dist),
                  tree(agree)};
}

/* which reductions a kind reads, and whether its attractor ever acts */
enum { PLAIN, ATTRACT, L1_NORM, XI, PROJECTED, NORMALIZED };

#define ADVANCE(...)                                                       \
    (record ? advance(w, xu, xd, h, mue, kappa, L, __VA_ARGS__, 1)         \
            : advance(w, xu, xd, h, mue, kappa, L, __VA_ARGS__, 0))

static sums pass(int mode, int record, double *w, const double *xu,
                 const double *xd, const double *h, double mue, double kappa,
                 int64_t L) {
    switch (mode) {
    case PLAIN: return ADVANCE(0, 0, 0, 0);
    case ATTRACT: return ADVANCE(1, 0, 0, 0);
    case L1_NORM: return ADVANCE(1, 0, 0, 1);
    case XI: return ADVANCE(1, 0, 1, 1);
    case PROJECTED: return ADVANCE(1, 1, 0, 0);
    default: return ADVANCE(1, 1, 1, 0);
    }
}

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

/* One row: controller c on the sequence from zero weights, writing its
 * records every `every` samples from rec on. Returns the sample of the
 * update that made a weight non-finite, N if none did, or -1 if memory ran
 * out. */
static int64_t run_row(int64_t N, int64_t L, const double *xpad,
                       const double *d, const double *xx, int64_t nspans,
                       const int64_t *starts, const double *taps,
                       const double *hnorm, const int64_t *active, double mu,
                       const zap_ctl *c, double mse_beta, int64_t every,
                       zap_record *rec) {
    int mode;
    switch (c->kind) {
    case LMS: case FIXED_ZAP: mode = c->kappa0 != 0.0 ? ATTRACT : PLAIN; break;
    case YOU: mode = ATTRACT; break;
    case LIU: mode = c->xi ? XI : L1_NORM; break;
    case PROPOSED_L1: mode = PROJECTED; break;
    default: mode = NORMALIZED;
    }
    double *w = calloc((size_t)L, sizeof *w);
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
    sums s = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0};  /* of the zero weights */
    for (int64_t span = 0; span < nspans && stop == N; span++) {
        const double *h = taps + span * L;
        int64_t end = span + 1 < nspans ? starts[span + 1] : N;
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
            switch (c->kind) {
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
                break;
            }
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
                break;
            }
            case PROPOSED_L1:
                kappa = smooth(c, kappa, l1_delta(e, xx[n], s.xs));
                break;
            case PROPOSED_NORM: {
                double r = sqrt(s.ww);
                double m = (r >= c->w2_floor || r != r) ? r : c->w2_floor;
                kappa = smooth(c, kappa, l1_delta(e, xx[n], s.xs) / (m * norm_scale));
                break;
            }
            }
            int record = n % every == 0;
            s = pass(mode, record, w, xu, xd, h, mu * e, kappa, L);
            mse = (1.0 - mse_beta) * mse + (mse_beta * e) * e;
            if (record) {
                zap_record *r = rec + n / every;
                r->misalignment_db = 20.0 * log10(sqrt(s.dist) / hnorm[span]);
                r->kappa = kappa;
                r->error = e;
                r->sign_agreement = s.agree / (double)active[span];
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
 * starts[i] with taps taps[i*L:(i+1)*L], norm hnorm[i] and active[i]
 * nonzero taps. Row a writes its records to rec + a*rec_stride and the
 * sample of its diverging update to stop_at[a] (N if none). Returns 0, or
 * -1 if memory ran out. The smoothed error power forgets at mse_beta. */
int zap_run(int64_t N, int64_t L, const double *xpad, const double *d,
            int64_t nspans, const int64_t *starts, const double *taps,
            const double *hnorm, const int64_t *active, double mu, int64_t A,
            const zap_ctl *ctls, double mse_beta, int64_t every, zap_record *rec,
            int64_t rec_stride, int64_t *stop_at) {
    double *xx = NULL;
    for (int64_t a = 0; a < A; a++)
        if (ctls[a].kind == PROPOSED_L1 || ctls[a].kind == PROPOSED_NORM) {
            if (!(xx = malloc((size_t)N * sizeof *xx)))
                return -1;
            for (int64_t n = 0; n < N; n++)
                xx[n] = dot(xpad + (N - n), xpad + (N - n), L);
            break;
        }
    int status = 0;
    for (int64_t a = 0; a < A && status == 0; a++) {
        stop_at[a] = run_row(N, L, xpad, d, xx, nspans, starts, taps, hnorm,
                             active, mu, ctls + a, mse_beta, every,
                             rec + a * rec_stride);
        status = stop_at[a] < 0 ? -1 : 0;
    }
    free(xx);
    return status;
}
