/* _fdm_step.c: the forward-Euler step of vesim's FDM, compiled.
 *
 * Steps n vesicles ("lanes") that share one extravesicular pool over the
 * steps [k0, k1) under one light flag, in place, with the contract of
 * fdm._step_numpy. A lane whose threshold test c_in >= c_switch flips in
 * step k has the flip logged in the crossing log and `above` updated; a
 * chattering lane thus costs no return to Python. The step returns k1,
 * or the first step k after which some lane's cargo fell below its
 * depletion threshold or the log has no room for another step's flips.
 * Each step makes the float operations of fdm._step_numpy, which calls
 * the flux laws of model.py and the buffer root of buffering.py, in the
 * same order, so the two agree bit for bit. That needs IEEE double
 * arithmetic as written: fdm.py builds this file with -O2
 * -ffp-contract=off (no fused multiply-add) and never with -ffast-math.
 *
 * The state lives in the rows of one n-column array, `lanes`, and in
 * `pool`, in the order of the enums below (fdm._LANE_ROWS and
 * fdm._POOL_FIELDS). The crossing log holds n_log[0] entries of capacity
 * `cap`: lane and direction (+1 up, -1 down) in the two rows of
 * `log_vd`, the interpolated crossing time in `log_t`.
 */

#include <math.h>
#include <stdint.h>

enum { V_IN, GAMMA_P, GAMMA_L, GAMMA_S, GAMMA_H, C_SWITCH, DEP_THRESHOLD,
       TH_IN, CS_IN, C_IN, NET_IN, RELEASED, N_ROWS };
enum { POOL_TH, POOL_TS, C_POOL, DT, V_POOL, B0, K_A, K_M, C_OUT0 };

/* numpy's pairwise summation of a contiguous double array: a plain loop
 * below 8 elements, 8 accumulators up to 128, halves above that with the
 * split rounded down to a multiple of 8. ndarray.sum(axis=1) adds this
 * to its initial 0.0. */
static double pairwise_sum(const double *a, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        long i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3]))
              + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* buffering.free_proton_conc */
static double free_conc(double total, double b0, double k_a)
{
    if (total <= 0.0)
        return 0.0;
    if (b0 <= 0.0)
        return total;
    double q = (b0 + k_a) - total;
    double disc = sqrt(q * q + (4.0 * k_a) * total);
    if (q >= 0.0)
        return (2.0 * k_a) * total / (q + disc);
    return 0.5 * (disc - q);
}

long vesim_fdm_steps(long n, double *lanes, unsigned char *above,
                     double *pool, int64_t *n_log, int64_t *log_vd,
                     double *log_t, long cap, long k0, long k1, int light)
{
    const double *v_in = lanes + V_IN * n, *gamma_p = lanes + GAMMA_P * n,
                 *gamma_l = lanes + GAMMA_L * n,
                 *gamma_s = lanes + GAMMA_S * n,
                 *gamma_h = lanes + GAMMA_H * n,
                 *c_switch = lanes + C_SWITCH * n,
                 *dep_threshold = lanes + DEP_THRESHOLD * n;
    double *th_in = lanes + TH_IN * n, *cs_in = lanes + CS_IN * n,
           *c_in = lanes + C_IN * n, *net_in = lanes + NET_IN * n,
           *released = lanes + RELEASED * n;
    const double dt = pool[DT], v_pool = pool[V_POOL], b0 = pool[B0],
                 k_a = pool[K_A], k_m = pool[K_M], c_out0 = pool[C_OUT0];
    const int pumping = light && c_out0 > 0.0;  /* model.pump_flux */
    double pool_th = pool[POOL_TH], pool_ts = pool[POOL_TS],
           c_pool = pool[C_POOL];
    long k;
    int64_t m = *n_log;

    for (k = k0; k < k1; k++) {
        const double ratio = pumping ? c_pool / c_out0 : 0.0;
        int low = 0;
        for (long v = 0; v < n; v++) {
            const double cs = cs_in[v];
            /* model.symport_flux: mm = gate * c_s / (c_s + k_m) */
            const double gate = (above[v] && cs > 0.0) ? 1.0 : 0.0;
            const double mm = gate * cs / (cs + k_m);
            const double f_s = gamma_s[v] * mm, f_h = gamma_h[v] * mm;
            const double pump = pumping ? gamma_p[v] * ratio : 0.0;
            const double leak = gamma_l[v] * (c_in[v] - c_pool);
            const double net = pump - leak - f_h;  /* net_proton_inflow */
            const double rel = dt * f_s;
            th_in[v] += dt * net;
            cs_in[v] = cs - rel / v_in[v];
            net_in[v] = net;
            released[v] = rel;
        }
        pool_th -= dt * (0.0 + pairwise_sum(net_in, n));
        pool_ts += 0.0 + pairwise_sum(released, n);
        for (long v = 0; v < n; v++) {
            const double c_prev = c_in[v];
            c_in[v] = free_conc(th_in[v] / v_in[v], b0, k_a);
            if ((c_in[v] >= c_switch[v]) != (above[v] != 0)) {
                /* the crossing by linear interpolation within step k */
                const double diff_prev = c_prev - c_switch[v];
                const double frac =
                    diff_prev / (diff_prev - (c_in[v] - c_switch[v]));
                above[v] = !above[v];
                log_vd[m] = v;
                log_vd[cap + m] = above[v] ? 1 : -1;
                log_t[m] = (double)k * dt + frac * dt;
                m++;
            }
            low |= cs_in[v] < dep_threshold[v];
        }
        c_pool = free_conc(pool_th / v_pool, b0, k_a);
        if (low || m + n > cap)
            break;
    }
    pool[POOL_TH] = pool_th;
    pool[POOL_TS] = pool_ts;
    pool[C_POOL] = c_pool;
    *n_log = m;
    return k;
}
