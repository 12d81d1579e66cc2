/* _native.c: vesim's compiled kernels, loaded by native.py.
 *
 * vesim_fdm_steps is the forward-Euler step of the FDM; vesim_format_rows
 * and vesim_copy_fields write the artifact text format (the CSV writer
 * and the plot export). Each has a Python twin that it equals bit for
 * bit and that runs where no C compiler is found. None calls into
 * CPython, so native.py loads them with ctypes.CDLL, which releases the
 * GIL around each call.
 *
 * --- The FDM step ------------------------------------------------------
 *
 * Steps n vesicles ("lanes") that share one extravesicular pool over the
 * steps [k0, k1) under one light flag, in place, with the contract of
 * fdm._step_numpy. A lane whose threshold test c_in >= c_switch flips in
 * step k has the flip logged in the crossing log and `above` updated; a
 * chattering lane thus costs no return to Python. Before each step k with
 * k % stride == 0 the step writes record k / stride: each lane's c_in and
 * cs_in, the pool's free H+ and its substrate concentration.
 *
 * The step returns k1; or -(k + 1) after the rare step k in which some
 * lane's cargo fell below its depletion threshold or after which the log
 * has no room for another step's flips, so that the driver sees to the
 * cargo before record k + 1 is written; or, for a run that stops once
 * its schedules are final (t_settled is not NaN), the record step k
 * before writing its record, when crossings were logged since the driver
 * last took the log or k * dt >= t_settled.
 *
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
 * `log_vd`, the interpolated crossing time in `log_t`. The records are
 * the rows of rec_h_in and rec_s_in (n columns each) and the entries of
 * rec_pool_h and rec_pool_s (fdm._Records).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

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
                     double *log_t, long cap, double *rec_h_in,
                     double *rec_s_in, double *rec_pool_h,
                     double *rec_pool_s, long stride, long k0, long k1,
                     int light, double t_settled)
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
    const int settling = !isnan(t_settled);
    long k, r = (k0 + stride - 1) / stride;  /* the next record */
    int64_t m = *n_log;

    for (k = k0; k < k1; k++) {
        if (k == r * stride) {
            if (settling && (m > 0 || (double)k * dt >= t_settled))
                break;
            memcpy(rec_h_in + r * n, c_in, n * sizeof(double));
            memcpy(rec_s_in + r * n, cs_in, n * sizeof(double));
            rec_pool_h[r] = c_pool;
            rec_pool_s[r] = pool_ts / v_pool;
            r++;
        }
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
        if (low || m + n > cap) {
            k = -(k + 1);
            break;
        }
    }
    pool[POOL_TH] = pool_th;
    pool[POOL_TS] = pool_ts;
    pool[C_POOL] = c_pool;
    *n_log = m;
    return k;
}

/* --- The artifact text format ------------------------------------------
 *
 * vesim_format_rows writes the rows [r0, r1) of n_cols columns as CSV
 * text into `out`, which has room for `cap` bytes: fields joined by ',',
 * each row ended by "\r\n" (trajectory.write_csv_columns). Column j is
 * described by the COL_FIELDS entries cols[COL_FIELDS * j ...]: its kind;
 * the address of its values, float64 or int64, indexed by row (for a
 * label column, the int64 code of each row's label); for a label column,
 * the addresses of the label table, the UTF-8 bytes of every label one
 * after another, and of its int64 offsets, one more than there are
 * labels; and the column's run state, which the call sets.
 *
 * A float is written as float.__repr__ writes it (format_float), from the
 * power-of-5 tables `pow5_inv` and `pow5` (native._pow5_tables). Each run
 * of bit-identical floats (0.0 and -0.0 differ), and each run of equal
 * integers, is formatted once per call; the run's other fields are copied
 * from its first one. The call touches no Python object, so ctypes.CDLL
 * releases the GIL around it.
 *
 * Returns the number of bytes written; -1 if a row would not fit into
 * `cap`.
 */

enum { COL_FLOAT, COL_INT, COL_LABEL };
enum { COL_KIND, COL_DATA, COL_TABLE, COL_OFFSETS, COL_RUN_KEY,
       COL_RUN_AT, COL_RUN_LEN, COL_FIELDS };

#define FLOAT_REPR_MAX 24   /* "-2.2250738585072014e-308" */
#define INT_MAX_LEN 20      /* "-9223372036854775808" */
#define POW5_BITS 125       /* bits of a power-of-5 table entry */

static long format_int(char *dst, int64_t v)
{
    char digits[INT_MAX_LEN];
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    long n = 0, len = 0;
    do {
        digits[n++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (v < 0)
        dst[len++] = '-';
    while (n)
        dst[len++] = digits[--n];
    return len;
}

/* floor(m * mul / 2^j), mul being a table entry's (low, high) words */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int j)
{
    const unsigned __int128 lo = (unsigned __int128)m * mul[0],
                            hi = (unsigned __int128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

static int multiple_of_pow5(uint64_t v, int p)
{
    for (; v % 5 == 0; v /= 5)
        p--;
    return p <= 0;
}

/* ceil(log2(5^e)) for 0 < e <= 3528, and 1 for e = 0 */
static int pow5_bits(int e)
{
    return (int)(((uint32_t)e * 1217359) >> 19) + 1;
}

/* floor(log10(2^e)) for 0 <= e <= 1650 */
static int log10_pow2(int e)
{
    return (int)(((uint32_t)e * 78913) >> 18);
}

/* floor(log10(5^e)) for 0 <= e <= 2620 */
static int log10_pow5(int e)
{
    return (int)(((uint32_t)e * 732923) >> 20);
}

/* The shortest digits that read back as the finite double m2 * 2^e2 > 0
 * (the significand m2 and exponent e2 of the bits `frac` and `exp`), the
 * one nearest to it where several are shortest, the even one at a tie:
 * Ryu's d2d (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018),
 * which gives the digits of CPython's float_repr_style "short". Returns
 * them as an integer, with x = digits * 10^*e10 in *e10. Bounds that the
 * nearest-even rounding of a decimal string reads back as x are in its
 * interval when m2 is even.
 *
 * The tables hold 125-bit integers as two words each, low first:
 * pow5_inv[q] = floor(2^(b + 124) / 5^q) + 1 for 0 <= q < 292 and
 * pow5[i] = floor(5^i * 2^(125 - b)), the leading 125 bits of 5^i, for
 * 0 <= i < 326, b being the bit length of the power. The largest q a
 * double needs is floor(log10(2^969)) = 291, the largest i 325. */
static uint64_t shortest_digits(uint64_t frac, int exp,
                                const uint64_t *pow5_inv,
                                const uint64_t *pow5, int *e10)
{
    /* two more bits than the double, for the interval's bounds */
    const int e2 = (exp ? exp : 1) - 1023 - 52 - 2;
    const uint64_t m2 = exp ? frac | (uint64_t)1 << 52 : frac;
    const int accept_bounds = (m2 & 1) == 0;
    const uint64_t mv = 4 * m2;
    /* the lower gap is half the upper one at a power of 2 */
    const int mm_shift = frac != 0 || exp <= 1;
    uint64_t vr, vp, vm, output;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0, removed = 0;
    int last = 0;  /* the last digit dropped */
    if (e2 >= 0) {
        const int q = log10_pow2(e2) - (e2 > 3);
        const int j = -e2 + q + POW5_BITS + pow5_bits(q) - 1;
        *e10 = q;
        vr = mul_shift(mv, pow5_inv + 2 * q, j);
        vp = mul_shift(mv + 2, pow5_inv + 2 * q, j);
        vm = mul_shift(mv - 1 - mm_shift, pow5_inv + 2 * q, j);
        if (q <= 21) {
            /* at most one of mv - 1 - mm_shift, mv and mv + 2 is a
             * multiple of 5 */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const int q = log10_pow5(-e2) - (-e2 > 1);
        const int i = -e2 - q;
        const int j = q - (pow5_bits(i) - POW5_BITS);
        *e10 = q + e2;
        vr = mul_shift(mv, pow5 + 2 * i, j);
        vp = mul_shift(mv + 2, pow5 + 2 * i, j);
        vm = mul_shift(mv - 1 - mm_shift, pow5 + 2 * i, j);
        if (q <= 1) {
            /* mv has two trailing 0 bits, mv + 2 one, mv - 1 - mm_shift
             * one where mm_shift is 1 */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_trailing_zeros = (mv & (((uint64_t)1 << q) - 1)) == 0;
        }
    }
    /* drop digits while the interval (vm, vp) holds a shorter number;
     * an exact vm then drops the zeros it ends in */
    while (vp / 10 > vm / 10 || (vm_trailing_zeros && vm % 10 == 0)) {
        vm_trailing_zeros &= vm % 10 == 0;
        vr_trailing_zeros &= last == 0;
        last = (int)(vr % 10);
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed++;
    }
    if (vr_trailing_zeros && last == 5 && vr % 2 == 0)
        last = 4;  /* exactly half way: round to even */
    /* vr + 1 where vr is out of the interval or rounds up */
    output = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros))
                   || last >= 5);
    *e10 += removed;
    return output;
}

/* The double of the bits `bits` as repr writes it: its shortest digits,
 * in fixed notation where the decimal point falls after digit decpt of
 * the digits with -4 < decpt <= 16, with ".0" on an integral value, else
 * as d.ddde+XX with two exponent digits or more; -0.0, inf, -inf, and
 * nan whatever its sign and payload. Writes at most FLOAT_REPR_MAX
 * bytes. */
static long format_float(char *dst, uint64_t bits,
                         const uint64_t *pow5_inv, const uint64_t *pow5)
{
    uint64_t digits;
    char d[20];
    int e10, n = 0;
    long len = 0;
    const uint64_t frac = bits & (((uint64_t)1 << 52) - 1);
    const int exp = (int)(bits >> 52 & 0x7FF);
    if (exp == 0x7FF && frac != 0) {
        memcpy(dst, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        dst[len++] = '-';
    if (exp == 0x7FF) {
        memcpy(dst + len, "inf", 3);
        return len + 3;
    }
    if (exp == 0 && frac == 0) {
        memcpy(dst + len, "0.0", 3);
        return len + 3;
    }
    digits = shortest_digits(frac, exp, pow5_inv, pow5, &e10);
    for (; digits; digits /= 10)
        d[sizeof d - ++n] = (char)('0' + digits % 10);
    const char *dig = d + sizeof d - n;
    const int decpt = n + e10;  /* x = 0.ddd * 10^decpt */
    if (decpt > -4 && decpt <= 16) {
        if (decpt <= 0) {
            dst[len++] = '0';
            dst[len++] = '.';
            for (int k = decpt; k < 0; k++)
                dst[len++] = '0';
            for (int k = 0; k < n; k++)
                dst[len++] = dig[k];
        } else {
            for (int k = 0; k < decpt; k++)
                dst[len++] = k < n ? dig[k] : '0';
            dst[len++] = '.';
            if (decpt >= n)
                dst[len++] = '0';
            for (int k = decpt; k < n; k++)
                dst[len++] = dig[k];
        }
        return len;
    }
    dst[len++] = dig[0];
    if (n > 1) {
        dst[len++] = '.';
        for (int k = 1; k < n; k++)
            dst[len++] = dig[k];
    }
    int e = decpt - 1;
    dst[len++] = 'e';
    dst[len++] = e < 0 ? '-' : '+';
    if (e < 0)
        e = -e;
    if (e >= 100)
        dst[len++] = (char)('0' + e / 100);
    dst[len++] = (char)('0' + e / 10 % 10);
    dst[len++] = (char)('0' + e % 10);
    return len;
}

long vesim_format_rows(const uint64_t *pow5_inv, const uint64_t *pow5,
                       long n_cols, int64_t *cols, long r0, long r1,
                       char *out, long cap)
{
    long w = 0;
    if (n_cols <= 0)
        return 0;
    for (long j = 0; j < n_cols; j++)
        cols[COL_FIELDS * j + COL_RUN_AT] = -1;
    for (long r = r0; r < r1; r++) {
        for (long j = 0; j < n_cols; j++) {
            int64_t *col = cols + COL_FIELDS * j;
            const void *data = (const void *)(intptr_t)col[COL_DATA];
            int64_t key;
            long len;
            if (col[COL_KIND] == COL_LABEL) {
                const int64_t *off =
                    (const int64_t *)(intptr_t)col[COL_OFFSETS];
                const int64_t code = ((const int64_t *)data)[r];
                len = (long)(off[code + 1] - off[code]);
                if (w + len + 2 > cap)
                    return -1;
                memcpy(out + w,
                       (const char *)(intptr_t)col[COL_TABLE] + off[code],
                       len);
            } else {
                if (col[COL_KIND] == COL_FLOAT)
                    memcpy(&key, (const double *)data + r, sizeof key);
                else
                    key = ((const int64_t *)data)[r];
                if (col[COL_RUN_AT] >= 0 && key == col[COL_RUN_KEY]) {
                    len = (long)col[COL_RUN_LEN];
                    if (w + len + 2 > cap)
                        return -1;
                    memcpy(out + w, out + col[COL_RUN_AT], len);
                } else {
                    const int is_int = col[COL_KIND] == COL_INT;
                    if (w + (is_int ? INT_MAX_LEN : FLOAT_REPR_MAX) + 2 > cap)
                        return -1;
                    len = is_int ? format_int(out + w, key)
                                 : format_float(out + w, (uint64_t)key,
                                                pow5_inv, pow5);
                    col[COL_RUN_KEY] = key;
                    col[COL_RUN_AT] = w;
                    col[COL_RUN_LEN] = len;
                }
            }
            w += len;
            out[w++] = ',';
        }
        out[w - 1] = '\r';
        out[w++] = '\n';
    }
    return w;
}

/* vesim_copy_fields writes the plot export's lines for the input lines
 * in[0, n) (runner._write_series): for each input line, one line per
 * series k, heads[k] "," t "," value "\r\n", where t is the line's field
 * pick[0], the value its field pick[k + 1], and heads[k] the bytes
 * heads[head_off[k], head_off[k + 1]).
 *
 * It takes only lines that runner._fields takes: each ends in "\r\n" and
 * holds no other '\r' or '\n', no '"', and exactly `width` fields. It
 * also refuses a byte outside ASCII, which the text path decodes. `pos`
 * has room for width + 1 entries, which the call overwrites.
 *
 * Returns the number of bytes written, having set *n_lines to the number
 * of lines; -1 if it refuses the lines, which the caller then gives to
 * the text path to name the fault; -2 if they would not fit into `cap`.
 */
long vesim_copy_fields(const char *in, long n, long width, long n_pick,
                       const int64_t *pick, const char *heads,
                       const int64_t *head_off, int64_t *pos, char *out,
                       long cap, int64_t *n_lines)
{
    long w = 0, i = 0, lines = 0;
    for (; i < n; lines++) {
        long f = 0;
        pos[0] = i;
        for (;;) {
            if (i == n)
                return -1;  /* a last line with no line end */
            const unsigned char c = (unsigned char)in[i++];
            if (c == ',') {
                if (++f == width)
                    return -1;
                pos[f] = i;
            } else if (c == '\r') {
                if (i == n || in[i] != '\n')
                    return -1;
                i++;
                break;
            } else if (c == '\n' || c == '"' || c >= 0x80) {
                return -1;
            }
        }
        if (f != width - 1)
            return -1;
        pos[width] = i - 1;  /* field j ends before pos[j + 1] - 1 */
        const long t_at = (long)pos[pick[0]],
                   t_len = (long)pos[pick[0] + 1] - 1 - t_at;
        for (long k = 1; k < n_pick; k++) {
            const long h_len = (long)(head_off[k] - head_off[k - 1]),
                       v_at = (long)pos[pick[k]],
                       v_len = (long)pos[pick[k] + 1] - 1 - v_at;
            if (w + h_len + t_len + v_len + 4 > cap)
                return -2;
            memcpy(out + w, heads + head_off[k - 1], h_len);
            w += h_len;
            out[w++] = ',';
            memcpy(out + w, in + t_at, t_len);
            w += t_len;
            out[w++] = ',';
            memcpy(out + w, in + v_at, v_len);
            w += v_len;
            out[w++] = '\r';
            out[w++] = '\n';
        }
    }
    *n_lines = lines;
    return w;
}
