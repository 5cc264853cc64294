/* Compiled kernels: the whole SISO closed loop, the cart-pendulum reference
 * and the codec of the CSV log's body.
 *
 * Twin of ``_kernels_py``: the same four functions, ``reference``,
 * ``run_loop``, ``format_rows`` and ``parse_rows``, with the same argument
 * order, and the same two constants, ``SUBSTEPS`` and ``ROW``.  The Python
 * twin's loop calls the library's float steps (``core.float_gain``,
 * ``observers.fts_observer_step``, ``ulm``'s first- and second-order steps,
 * ``controller.control_rhs_second_order`` and ``influence_gain``,
 * ``plants.synthetic_ulm_plant_step``); the loop here writes each of them
 * inline.  It and the RK4 ``advance`` write the
 * arithmetic expression for expression in the same order, so both
 * backends return the same bits.  ``run_loop`` calls the C library's exp,
 * log, tanh and sqrt, which CPython's ``math`` calls too.
 * That holds when the compiler does not contract a*b + c into a fused
 * multiply-add, which it may on targets with FMA (aarch64, or x86-64 with
 * -march=native): the pragmas after the includes forbid it for this file,
 * whatever flags the build passes (gcc rejects the standard pragma, so it
 * gets its own).
 *
 * ``run_loop`` draws the run's noise itself, the doubles of numpy's
 * ``Generator(PCG64(seed)).random``: ``plants._noise_state(width, seed)``
 * checks both and gives PCG64's state and increment, once per run, and the
 * generator (O'Neill 2014) steps as one 128-bit LCG in ``unsigned __int128``.
 * The Python twin draws the same doubles through ``plants.BumpNoiseStream``,
 * and ``sample`` reads them in its order.  So the loop makes no Python call
 * once its noise is seeded.
 *
 * As in the Python twin, the products that do not depend on the state are
 * formed once per call: ``make_params`` derives a11 = mc + mp, mp * lp,
 * a22, mp * grav * lp, 0.5 * cth and 0.1 * cx, and ``advance`` h2 and h6.
 * Each is the left operand of a left-associative chain in the accelerations
 * (mp * lp * td * td * si is (((mp * lp) * td) * td) * si), so hoisting it
 * changes no rounding; -mp * lp * co is ((-mp) * lp) * co, and IEEE
 * multiplication is sign-symmetric, so (-mp) * lp == -(mp * lp).
 *
 * The codec writes the bytes of ``b"%.17g" % x`` and reads the bits of
 * ``float(token)``, computing both exactly in 64- and 128-bit integers
 * where it can and calling the functions behind Python's own conversions
 * elsewhere.  ``format_rows`` writes +-0 and every 10^-16 <= |x| < 2^128
 * with ``format_fast``: the decimal exponent estimated from the binary one,
 * the 17 digits rounded half to even from the exact remainder and written
 * two at a time, in the layout of '%g'.  Any other value (a subnormal, NaN,
 * inf, one out of that range) goes to PyOS_double_to_string(x, 'g', 17, 0,
 * NULL), which is what ``%`` runs.  ``parse_rows`` reads strict rows only
 * (see ``parse_body``), each token in one pass with ``parse_fast`` when it
 * has at most 19 significant digits and a decimal exponent in [-26, 19],
 * correctly rounded as _Py_dg_strtod rounds: a token with a negative
 * exponent by ``eisel_lemire``'s one or two products, or by an exact
 * division when they leave the rounding undecided.  Any other token goes to
 * PyOS_string_to_double, which ``float`` and numpy's ``loadtxt`` run; for a
 * body that is not strict rows it returns None, and the caller reads the
 * file line by line.
 *
 * Build in place with ``python setup.py build_ext --inplace``.  A compiler
 * without ``unsigned __int128`` (MSVC, 32-bit targets) stops at the #error
 * below, and mfclab runs its pure-Python twin, as it does with no compiler.
 */

#ifndef __SIZEOF_INT128__
#error "_kernels.c needs unsigned __int128; without it mfclab runs its pure-Python twin"
#endif

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

typedef unsigned __int128 u128;

#define SUBSTEPS 10  /* RK4 steps per control period of the truth and the reference */
#define ROW 13  /* values per row of the log */

/* What the kernels read of the seven pendulum constants (mc, mp, lp, ip,
 * grav, cx, cth in ``PendulumParams.as_tuple()`` order), derived once per
 * call by ``make_params``. */
typedef struct {
    double a11, ml, a22, mgl, cx, cth, rth, rx;
} Params;

static inline void
accel(double theta, double x_dot, double theta_dot, double force,
      const Params *p, double *xdd, double *thdd)
{
    double co = cos(theta);
    double si = sin(theta);
    double a12 = -p->ml * co;
    double b1 = force - (p->ml * theta_dot * theta_dot * si + p->cx * tanh(x_dot));
    double b2 = p->mgl * si - p->cth * tanh(theta_dot);
    double det = p->a11 * p->a22 - a12 * a12;
    *xdd = (p->a22 * b1 - a12 * b2) / det;
    *thdd = (p->a11 * b2 - a12 * b1) / det;
}

/* Weak state feedback used to generate the reference swing. */
static inline double
ref_force(double x, double x_dot, double theta_dot, const Params *p)
{
    return -p->cx * x_dot - p->rth * theta_dot - p->rx * x;
}

/* Time derivative of the state s = (x, theta, x_dot, theta_dot); the
 * force is ``ref_force`` of the state when ``feedback`` is set. */
static inline void
deriv(const double *s, double force, int feedback, const Params *p, double *k)
{
    if (feedback)
        force = ref_force(s[0], s[2], s[3], p);
    k[0] = s[2];
    k[1] = s[3];
    accel(s[1], s[2], s[3], force, p, &k[2], &k[3]);
}

/* ``n`` classical RK4 steps of length h = dt / n, in place. */
static void
advance(double *s, double force, int feedback, double dt, long n, const Params *p)
{
    double k1[4], k2[4], k3[4], k4[4], t[4];
    double h = dt / (double)n;
    double h2 = 0.5 * h;
    double h6 = h / 6.0;
    int i;

    for (long step = 0; step < n; step++) {
        deriv(s, force, feedback, p, k1);
        for (i = 0; i < 4; i++)
            t[i] = s[i] + h2 * k1[i];
        deriv(t, force, feedback, p, k2);
        for (i = 0; i < 4; i++)
            t[i] = s[i] + h2 * k2[i];
        deriv(t, force, feedback, p, k3);
        for (i = 0; i < 4; i++)
            t[i] = s[i] + h * k3[i];
        deriv(t, force, feedback, p, k4);
        for (i = 0; i < 4; i++)
            s[i] = s[i] + h6 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/* ---- arguments ---------------------------------------------------------- */

/* The Params of the seven constants ``c``. */
static void
make_params(const double *c, Params *p)
{
    double mc = c[0], mp = c[1], lp = c[2], ip = c[3], grav = c[4], cx = c[5], cth = c[6];
    double ml = mp * lp;
    *p = (Params){.a11 = mc + mp, .ml = ml, .a22 = ip + ml * lp, .mgl = mp * grav * lp,
                  .cx = cx, .cth = cth, .rth = 0.5 * cth, .rx = 0.1 * cx};
}

/* A C-contiguous buffer of doubles, writable when ``flags`` holds
 * PyBUF_WRITABLE; any other is the TypeError of the Python twin's
 * ``_doubles``. */
static int
get_double_buffer(PyObject *obj, int flags, const char *name, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_STRIDES | PyBUF_FORMAT | flags) < 0)
        return -1;
    if (!PyBuffer_IsContiguous(view, 'C') || view->itemsize != (Py_ssize_t)sizeof(double)
        || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_TypeError, "%s() takes a C-contiguous buffer of doubles", name);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* ---- the reference ----------------------------------------------------- */

/* ``_kernels_py.reference``: the angle of each state into the doubles of
 * ``out``, the state advanced between samples under the reference
 * feedback; False at the first non-finite state. */
static PyObject *
reference(PyObject *Py_UNUSED(self), PyObject *args)
{
    double s[12];  /* the state, dt, then the seven constants */
    PyObject *buffer;
    Py_buffer out;
    if (!PyArg_ParseTuple(args, "Odddddddddddd:reference", &buffer, s, s + 1, s + 2, s + 3,
                          s + 4, s + 5, s + 6, s + 7, s + 8, s + 9, s + 10, s + 11)
        || get_double_buffer(buffer, PyBUF_WRITABLE, "reference", &out) < 0)
        return NULL;
    Params p;
    make_params(s + 5, &p);
    double *theta = out.buf, dt = s[4];
    Py_ssize_t count = out.len / (Py_ssize_t)sizeof(double);
    int finite = 1;
    for (Py_ssize_t k = 0; k < count && finite; k++) {
        if (k > 0)
            advance(s, 0.0, 1, dt, SUBSTEPS, &p);
        finite = isfinite(s[0]) && isfinite(s[1]) && isfinite(s[2]) && isfinite(s[3]);
        if (finite)
            theta[k] = s[1];
    }
    PyBuffer_Release(&out);
    return PyBool_FromLong(finite);
}

/* ---- the SISO closed loop ---------------------------------------------- */

/* A Hölder gain: weight w, margin, a = 1 - 1/exponent. */
typedef struct {
    double w, margin, a;
} Gain;

/* ``core.float_gain``: the Hölder gain of a scalar error, its form rounded
 * as w*(e*e); a form that is not positive (zero or NaN) gives exactly -1. */
static inline double
gain(double e, const Gain *g)
{
    double x = g->w * (e * e);
    if (!(x > 0.0))
        return -1.0;
    double z = exp(g->a * log(x));
    return (z - g->margin) / (z + g->margin);
}

/* The influence for a feedback total: the fixed ``value``, or with
 * ``adaptive`` set value * (1 + tanh(|total|)). */
static inline double
influence_of(double total, int adaptive, double value)
{
    return adaptive ? value * (1.0 + tanh(sqrt(total * total))) : value;
}

/* The measurement noise: PCG64's state and increment, and the width. */
typedef struct {
    u128 state, inc;
    double width;
} Noise;

/* PCG64's multiplier */
#define MULT ((u128)UINT64_C(2549297995355413924) << 64 | UINT64_C(4865540595714422341))

/* The next double of ``Generator.random``: the state stepped as
 * state * MULT + inc, mod 2^128, then the top 53 bits of its XSL-RR output,
 * times 2^-53. */
static inline double
draw(Noise *z)
{
    z->state = z->state * MULT + z->inc;
    uint64_t hi = (uint64_t)(z->state >> 64), x = hi ^ (uint64_t)z->state;
    unsigned r = (unsigned)(hi >> 58);
    x = (x >> r) | (x << (-r & 63));
    return (double)(x >> 11) * 0x1.0p-53;
}

/* The int ``v``, 0 <= v < 2^128, as a u128. */
static int
get_u128(PyObject *v, u128 *out)
{
    PyObject *high = PyObject_CallMethod(v, "__rshift__", "i", 64);
    if (high == NULL)
        return -1;
    *out = (u128)PyLong_AsUnsignedLongLongMask(high) << 64 | PyLong_AsUnsignedLongLongMask(v);
    Py_DECREF(high);
    return PyErr_Occurred() ? -1 : 0;
}

/* ``z`` seeded from the state and increment of
 * ``mfclab.plants._noise_state(width, seed)``, which checks both and
 * raises as ``BumpNoiseStream`` does. */
static int
get_noise(PyObject *width, PyObject *seed, Noise *z)
{
    PyObject *plants = PyImport_ImportModule("mfclab.plants");
    if (plants == NULL)
        return -1;
    PyObject *pair = PyObject_CallMethod(plants, "_noise_state", "OO", width, seed);
    Py_DECREF(plants);
    if (pair == NULL)
        return -1;
    PyObject *state, *inc;
    int rc = -1;
    if (PyArg_ParseTuple(pair, "OO", &state, &inc) && get_u128(state, &z->state) == 0
        && get_u128(inc, &z->inc) == 0) {
        z->width = PyFloat_AsDouble(width);
        rc = z->width == -1.0 && PyErr_Occurred() ? -1 : 0;
    }
    Py_DECREF(pair);
    return rc;
}

/* A sample of ``BumpNoiseStream.sample``: rejection against a uniform
 * envelope, u = -1 + 2 d and h = d of two draws per attempt. */
static double
sample(Noise *z)
{
    for (;;) {
        double u = -1.0 + 2.0 * draw(z);
        double h = draw(z);
        double u2 = u * u;
        if (u2 >= 1.0)
            continue;
        if (h < exp(1.0 - 1.0 / (1.0 - u2)))
            return 0.5 * z->width * u;
    }
}

/* The ``n`` floats of the sequence ``seq``, named ``what``: a list or a
 * tuple, or any other sequence, as the Python twin unpacks it. */
static int
get_sequence(PyObject *seq, Py_ssize_t n, const char *what, double *out)
{
    PyObject *fast = PySequence_Fast(seq, "run_loop() takes a sequence of floats");
    if (fast == NULL)
        return -1;
    int rc = 0;
    if (PySequence_Fast_GET_SIZE(fast) != n) {
        PyErr_Format(PyExc_ValueError, "run_loop() takes %s as %zd floats", what, n);
        rc = -1;
    }
    for (Py_ssize_t i = 0; i < n && rc == 0; i++) {
        out[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, i));
        if (out[i] == -1.0 && PyErr_Occurred())
            rc = -1;
    }
    Py_DECREF(fast);
    return rc;
}

/* The loop of ``_kernels_py.run_loop``, statement for statement, with the
 * library steps it calls written inline; see its docstring for the
 * arguments; as there, ``width`` is not read when ``seed`` is None.
 * Where the Python twin's advance raises (trig of an infinite angle, a zero
 * determinant), ``advance`` gives inf or NaN, and the state is checked
 * instead. */
static PyObject *
run_loop(PyObject *Py_UNUSED(self), PyObject *args)
{
    Gain obs, ulm, ctl;
    int adaptive, second_order, oracle_f;
    double influence, mu, f_hat_bias, dt, y_hat0;
    Py_ssize_t n;
    PyObject *y_d_arg, *truth, *params, *f_arg, *width, *seed;
    Noise noise = {0};
    if (!PyArg_ParseTuple(args, "dddddddddpddppddnOdOOOOO:run_loop", &obs.w, &obs.margin,
                          &obs.a, &ulm.w, &ulm.margin, &ulm.a, &ctl.w, &ctl.margin, &ctl.a,
                          &adaptive, &influence, &mu, &second_order, &oracle_f, &f_hat_bias,
                          &dt, &n, &y_d_arg, &y_hat0, &truth, &params, &f_arg, &width,
                          &seed))
        return NULL;
    if (n < 0)
        n = 0;
    if (n > PY_SSIZE_T_MAX / (ROW * (Py_ssize_t)sizeof(double)) - 2)
        return PyErr_NoMemory();

    int pendulum = params != Py_None;
    Py_ssize_t lag = pendulum ? 1 : 0;
    double state[4];
    /* read for the pendulum alone, where it is set; zeroed, since gcc -O3
     * cannot see that and warns */
    Params p = {0};
    int noisy = seed != Py_None;
    Py_buffer y_d_view = {0}, f_view = {0};
    double *rows = NULL, *y_true = NULL, *y_hat = NULL;
    PyObject *result = NULL;
    if (pendulum) {
        double c[7];
        if (get_sequence(truth, 4, "truth", state) < 0
            || get_sequence(params, 7, "params", c) < 0)
            return NULL;
        make_params(c, &p);
    }
    else if (get_sequence(truth, 2, "truth", state) < 0)
        return NULL;
    if (get_double_buffer(y_d_arg, 0, "run_loop", &y_d_view) < 0)
        return NULL;
    if (!pendulum && get_double_buffer(f_arg, 0, "run_loop", &f_view) < 0)
        goto done;
    if (y_d_view.len / (Py_ssize_t)sizeof(double) < n + 2 - lag
        || (!pendulum && f_view.len / (Py_ssize_t)sizeof(double) < n)) {
        PyErr_Format(PyExc_ValueError,
                     "run_loop() takes y_d as %zd doubles and f_signal as %zd at least",
                     n + 2 - lag, pendulum ? (Py_ssize_t)0 : n);
        goto done;
    }
    if (noisy && get_noise(width, seed, &noise) < 0)
        goto done;
    rows = PyMem_Malloc((size_t)(n * ROW) * sizeof(double));
    y_true = PyMem_Malloc((size_t)(n + 2) * sizeof(double));
    y_hat = PyMem_Malloc((size_t)n * sizeof(double));
    if (rows == NULL || y_true == NULL || y_hat == NULL) {
        PyErr_NoMemory();
        goto done;
    }

    const double *y_d = y_d_view.buf, *f_signal = f_view.buf;
    if (pendulum)
        y_true[0] = state[1];
    else {
        y_true[0] = state[0];
        y_true[1] = state[1];
    }
    const double *signal = pendulum ? y_hat : y_true;
    /* the F estimator: its estimate, the last value it absorbed (none
     * before the first) and, second order only, its estimate of F's first
     * difference */
    double f_hat = 0.0, f_prev = 0.0, delta_hat = 0.0;
    int have_prev = 0;
    double e_o = 0.0;     /* observer estimate minus measurement */
    double effect = 0.0;  /* G u of the previous step */
    Py_ssize_t kept = n;
    for (Py_ssize_t k = 0; k < n; k++) {
        double y_k = y_true[k];
        double y_m = y_k + (noisy ? sample(&noise) : 0.0);
        double y_hat_k = k == 0 ? y_hat0 : y_m + gain(e_o, &obs) * e_o;
        e_o = y_hat_k - y_m;
        y_hat[k] = y_hat_k;

        Py_ssize_t j = k - lag;
        if (j >= 1) {
            double f_new;
            if (pendulum)
                f_new = ((signal[j + 1] - signal[j]) - (signal[j] - signal[j - 1])) - effect;
            else
                f_new = (signal[j + 1] - 2.0 * signal[j] + signal[j - 1]) - effect;
            if (!second_order) {
                double err = f_hat - f_new;
                f_hat = gain(err, &ulm) * err + f_new;
            }
            else if (have_prev) {
                double delta = f_new - f_prev;
                double err = delta_hat - delta;
                delta_hat = gain(err, &ulm) * err + delta;
                err = f_hat - f_new;
                f_hat = gain(err, &ulm) * err + f_new + delta_hat;
            }
            f_prev = f_new;
            have_prev = 1;
        }
        double f_true_k;
        if (!pendulum)
            f_true_k = f_signal[k];
        else if (k < 2)
            f_true_k = 0.0;
        else
            f_true_k = ((y_true[k] - y_true[k - 1]) - (y_true[k - 1] - y_true[k - 2])) - effect;
        double f_hat_k = (oracle_f ? f_true_k : f_hat) + f_hat_bias;

        double s_k, g_k, u_k;
        if (j >= 0) {
            double e_j = signal[j] - y_d[j];
            double e_j1 = signal[j + 1] - y_d[j + 1];
            double e_1 = e_j1 - e_j;
            s_k = e_1 + mu * e_j;
            double c = gain(s_k, &ctl);
            double rhs = y_d[j + 2] - 2.0 * y_d[j + 1] + y_d[j] - (1.0 - c) * e_1
                         + c * mu * e_j - mu * e_j1 - f_hat_k;
            g_k = influence_of(-(1.0 - c) * s_k - mu * e_1 - f_hat_k, adaptive, influence);
            u_k = rhs / g_k;
            if (!isfinite(u_k)) {
                kept = k;
                break;
            }
        }
        else {
            s_k = 0.0;
            g_k = influence_of(0.0, adaptive, influence);
            u_k = 0.0;
        }
        effect = g_k * u_k;

        const double row[ROW] = {
            (double)k * dt, y_d[k], y_k, y_m, y_hat_k, y_k - y_d[k], e_o,
            f_true_k, f_hat_k, f_hat_k - f_true_k, s_k, u_k, g_k,
        };
        memcpy(rows + k * ROW, row, sizeof row);
        if (k < n - lag) {
            int finite;
            if (pendulum) {
                advance(state, u_k, 0, dt, SUBSTEPS, &p);
                finite = isfinite(state[0]) && isfinite(state[1]) && isfinite(state[2])
                         && isfinite(state[3]);
                y_true[k + 1] = state[1];
            }
            else {
                double y_next = 2.0 * y_true[k + 1] - y_true[k] + f_true_k + g_k * u_k;
                finite = isfinite(y_next);
                y_true[k + 2] = y_next;
            }
            if (!finite) {
                kept = k + lag;
                break;
            }
        }
    }
    result = Py_BuildValue("(y#O)", (const char *)rows, kept * ROW * (Py_ssize_t)sizeof(double),
                           kept < n ? Py_True : Py_False);
done:
    PyMem_Free(rows);
    PyMem_Free(y_true);
    PyMem_Free(y_hat);
    PyBuffer_Release(&f_view);  /* nothing to release when it was not taken */
    PyBuffer_Release(&y_d_view);
    return result;
}

/* ---- the CSV log's body codec ------------------------------------------ */

/* 5^n (n <= 32) and 10^n (n <= 22); for n = 1..26 the bit length b of 5^n
 * and the 128-bit reciprocal floor(2^(127+b) / 5^n), whose top bit is set.
 * All are filled by PyInit__kernels. */
static u128 pow5[33], pow10[23], inv5[27];
static int pow5_bits[27];

static const char digit_pairs[] =
    "00010203040506070809" "10111213141516171819" "20212223242526272829"
    "30313233343536373839" "40414243444546474849" "50515253545556575859"
    "60616263646566676869" "70717273747576777879" "80818283848586878889"
    "90919293949596979899";

/* The 8 decimal digits of v < 10^8, two at a time. */
static inline void
put8(char *o, uint32_t v)
{
    uint32_t hi = v / 10000, lo = v % 10000;
    memcpy(o, digit_pairs + 2 * (hi / 100), 2);
    memcpy(o + 2, digit_pairs + 2 * (hi % 100), 2);
    memcpy(o + 4, digit_pairs + 2 * (lo / 100), 2);
    memcpy(o + 6, digit_pairs + 2 * (lo % 100), 2);
}

/* The "%.17g" text of x written to ``out`` (24 bytes at least), as
 * PyOS_double_to_string(x, 'g', 17, 0, NULL) writes it; returns its length,
 * or 0 unless x is +-0 or 10^-16 <= |x| < 2^128.  With x = m * 2^e and
 * k = floor(log10 |x|), the 17 digits are D = x * 10^p, p = 16 - k, rounded
 * half to even: m * 5^p shifted by p + e when p >= 0 (p <= 32, so
 * m * 5^p < 2^128), (m << e) / 10^-p when p < 0 (-p <= 22, so m << e is
 * below 2^128 too).  k is first estimated from the binary exponent; when the
 * estimate is one short, D has 18 digits and its last joins the remainder. */
static int
format_fast(double x, char *out)
{
    char *o = out;
    if (signbit(x))
        *o++ = '-';
    if (x == 0.0) {
        *o++ = '0';
        return (int)(o - out);
    }
    double ax = fabs(x);
    if (!(ax >= 1e-16 && ax < 0x1p128))
        return 0;
    uint64_t bits;
    memcpy(&bits, &ax, sizeof bits);
    uint64_t m = (bits & ((UINT64_C(1) << 52) - 1)) | (UINT64_C(1) << 52);
    int e2 = (int)(bits >> 52) - 1023;  /* 2^e2 <= |x| < 2^(e2 + 1) */
    int e = e2 - 52;
    /* floor(e2 * log10 2), exact for |e2| < 1650: k or k - 1.  Below 2^-53
     * it is -17, and k is -16 but for the doubles below 10^-16. */
    int k = (e2 * 78913) >> 18;
    if (k < -16)
        k = -16;
    int p = 16 - k;
    uint64_t d;
    u128 rem, unit;
    if (p < 0) {
        unit = pow10[-p];
        u128 v = (u128)m << e;
        u128 quo = v / unit;
        rem = v - quo * unit;
        d = (uint64_t)quo;
    }
    else if (p + e >= 0) {
        d = (uint64_t)((u128)m * pow5[p] << (p + e));
        rem = 0;
        unit = 1;
    }
    else {
        u128 v = (u128)m * pow5[p];
        int s = -(p + e);
        d = (uint64_t)(v >> s);
        unit = (u128)1 << s;
        rem = v & (unit - 1);
    }
    /* the doubles in [1e-16, 10^-16) have k = -17, beyond p's table */
    if (d < UINT64_C(10000000000000000))
        return 0;
    if (d >= UINT64_C(100000000000000000)) {
        rem += (d % 10) * unit;
        unit *= 10;
        d /= 10;
        k++;
    }
    if (2 * rem > unit || (2 * rem == unit && (d & 1)))
        d++;
    if (d == UINT64_C(100000000000000000)) {
        d /= 10;
        k++;
    }
    /* a 9-digit half and an 8-digit half */
    char dig[17];
    uint32_t hi = (uint32_t)(d / 100000000);
    dig[0] = (char)('0' + hi / 100000000);
    put8(dig + 1, hi % 100000000);
    put8(dig + 9, (uint32_t)(d % 100000000));
    int nd = 17;
    while (dig[nd - 1] == '0')
        nd--;
    if (k < -4 || k >= 17) {
        *o++ = dig[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, dig + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = k < 0 ? '-' : '+';
        memcpy(o, digit_pairs + 2 * abs(k), 2);
        o += 2;
    }
    else if (k < 0) {
        memcpy(o, "0.0000", 1 - k);
        o += 1 - k;
        memcpy(o, dig, nd);
        o += nd;
    }
    else if (nd <= k + 1) {
        memcpy(o, dig, nd);
        memset(o + nd, '0', k + 1 - nd);
        o += k + 1;
    }
    else {
        memcpy(o, dig, k + 1);
        o[k + 1] = '.';
        memcpy(o + k + 2, dig + k + 1, nd - k - 1);
        o += nd + 1;
    }
    return (int)(o - out);
}

/* (v + sticky) * 2^exp correctly rounded, for v != 0 and a normal result;
 * ``sticky`` says that a nonzero fraction below v was dropped. */
static double
scaled_double(u128 v, int sticky, int exp)
{
    uint64_t hi = (uint64_t)(v >> 64);
    int bitlen = hi ? 128 - __builtin_clzll(hi) : 64 - __builtin_clzll((uint64_t)v);
    uint64_t top;
    /* keep the top 64 bits; any lower bit set joins the sticky bit, which
     * lies below the rounding position of the 53-bit result */
    if (bitlen > 64) {
        int drop = bitlen - 64;
        top = (uint64_t)(v >> drop);
        sticky |= (v & (((u128)1 << drop) - 1)) != 0;
        exp += drop;
    }
    else {
        top = (uint64_t)v << (64 - bitlen);
        exp -= 64 - bitlen;
    }
    /* one rounding, in the conversion; the power of two 2^exp, assembled
     * from its bits, scales exactly */
    uint64_t scale_bits = (uint64_t)(1023 + exp) << 52;
    double scale;
    memcpy(&scale, &scale_bits, sizeof scale);
    return (double)(top | (uint64_t)sticky) * scale;
}

/* w * 10^-n for 0 < w < 10^19 and 1 <= n <= 26, correctly rounded, into
 * ``out`` by Eisel and Lemire's method (Lemire, "Number parsing at a
 * gigabyte per second", 2021); 0 when the table's truncation leaves the
 * rounding undecided.  With W = w << l normalized to bit 63 and T = inv5[n],
 * X = W * 2^(127+b) / 5^n lies in [W*T, W*T + W), below 2^192.  Its bits
 * from 137 up (53 bits, the rounding bit, and bit 63 of the top word) are
 * those of the top word of W * T_hi, which may be one short: they are
 * decided unless its low 9 bits are all ones, and then the second product
 * W * T_lo decides them unless bits 64..136 are still all ones.  They are
 * only when X is a multiple K * 2^137, an exact double or a tie, which the
 * caller rounds exactly: X then lies within 2^64 of one, and 5^n * X =
 * W * 2^(127+b) and 5^n * K * 2^137 are multiples of 2^130 that differ by
 * less than 5^n * 2^64 < 2^130.  Once decided, X is neither, and a set
 * rounding bit means rounding up. */
static int
eisel_lemire(uint64_t w, int n, double *out)
{
    int l = __builtin_clzll(w);
    uint64_t wn = w << l;
    u128 prod = (u128)wn * (uint64_t)(inv5[n] >> 64);
    uint64_t hi = (uint64_t)(prod >> 64), lo = (uint64_t)prod;
    if ((hi & 0x1FF) == 0x1FF) {
        uint64_t add = (uint64_t)(((u128)wn * (uint64_t)inv5[n]) >> 64);
        lo += add;
        hi += lo < add;
        if ((hi & 0x1FF) == 0x1FF && lo == UINT64_MAX)
            return 0;
    }
    int msb = (int)(hi >> 63);
    /* the 53 bits after the rounding bit is added */
    uint64_t m = ((hi >> (msb + 9)) + 1) >> 1;
    int exp = 1086 + msb - l - n - pow5_bits[n];  /* the biased exponent */
    if (m >> 53) {
        m >>= 1;
        exp++;
    }
    uint64_t bits = (uint64_t)exp << 52 | (m & ((UINT64_C(1) << 52) - 1));
    memcpy(out, &bits, sizeof bits);
    return 1;
}

static inline int
is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* The token at s as PyOS_string_to_double reads it, into ``out``, when it
 * has the form -?d+(.d*)?([eE][+-]?d{1,3})? with 19 significant digits at
 * most (w < 10^19) and a decimal exponent q in [-26, 19]: w * 10^q exactly
 * when q >= 0, and when q < 0 by ``eisel_lemire`` or, when that cannot
 * decide, w shifted to bit 127 divided by 5^-q (5^26 < 2^61, so the
 * quotient keeps 66 bits at least).  One pass: returns the end of the
 * token, or NULL for any other token.  The byte at the end is read but not
 * taken, so s must be followed by a byte that is no digit, such as the '\n'
 * that ends a body. */
static const char *
parse_fast(const char *s, double *out)
{
    int neg = *s == '-';
    const char *p = s + neg;
    if (!is_digit(*p))
        return NULL;
    while (*p == '0')
        p++;
    const char *first = p;
    uint64_t w = 0;  /* wraps past 19 digits, which are then refused */
    for (; is_digit(*p); p++)
        w = w * 10 + (uint64_t)(*p - '0');
    Py_ssize_t nd = p - first, q = 0;
    if (*p == '.') {
        const char *frac = ++p;
        if (nd == 0)
            while (*p == '0')
                p++;
        first = p;
        for (; is_digit(*p); p++)
            w = w * 10 + (uint64_t)(*p - '0');
        nd += p - first;
        q = frac - p;
    }
    if (*p == 'e' || *p == 'E') {
        p++;
        int eneg = *p == '-';
        if (*p == '-' || *p == '+')
            p++;
        const char *start = p;
        int ex = 0;
        for (; is_digit(*p) && p - start < 3; p++)
            ex = ex * 10 + (*p - '0');
        if (p == start)
            return NULL;
        q += eneg ? -ex : ex;
    }
    if (nd > 19)
        return NULL;
    if (w == 0) {
        *out = neg ? -0.0 : 0.0;
        return p;
    }
    if (q < -26 || q > 19)
        return NULL;
    double x;
    if (q >= 0)
        x = scaled_double((u128)w * pow10[q], 0, 0);
    else if (!eisel_lemire(w, (int)-q, &x)) {
        int shift = __builtin_clzll(w) + 64;
        u128 v = (u128)w << shift, quo = v / pow5[-q];
        x = scaled_double(quo, v - quo * pow5[-q] != 0, (int)(q - shift));
    }
    *out = neg ? -x : x;
    return p;
}

static PyObject *
format_rows(PyObject *Py_UNUSED(self), PyObject *block)
{
    Py_buffer view;
    if (get_double_buffer(block, 0, "format_rows", &view) < 0)
        return NULL;
    PyObject *result = NULL;
    char *out = NULL;
    Py_ssize_t n = view.len / (Py_ssize_t)sizeof(double);
    if (n % ROW != 0) {
        PyErr_Format(PyExc_ValueError, "format_rows() got %zd values, not rows of %d", n, ROW);
        goto done;
    }
    /* "%.17g" takes at most 24 characters ("-1.2345678901234567e-308"),
     * and each value is followed by one separator */
    size_t cap = (size_t)n * 25, used = 0;
    out = PyMem_Malloc(cap + 1);
    if (out == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    const double *v = view.buf;
    for (Py_ssize_t i = 0, col = 1; i < n; i++, col++) {
        int fast = format_fast(v[i], out + used);
        if (fast)
            used += (size_t)fast;
        else {
            char *s = PyOS_double_to_string(v[i], 'g', 17, 0, NULL);
            if (s == NULL)
                goto done;
            size_t k = strlen(s);
            if (used + k + 1 > cap) {
                PyMem_Free(s);
                PyErr_SetString(PyExc_SystemError, "format_rows(): a value outgrew its bound");
                goto done;
            }
            memcpy(out + used, s, k);
            PyMem_Free(s);
            used += k;
        }
        if (col < ROW)
            out[used++] = ',';
        else {
            out[used++] = '\n';
            col = 0;
        }
    }
    result = PyBytes_FromStringAndSize(out, (Py_ssize_t)used);
done:
    PyMem_Free(out);
    PyBuffer_Release(&view);
    return result;
}

static inline int
number_char(char c)
{
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
}

/* Parse the body ``s``, a NUL-terminated text whose last byte is '\n',
 * into ``rows`` rows of ``ROW`` doubles ``v``.  Strict rows only: every
 * token is a run of [0-9.eE+-] that parse_fast or PyOS_string_to_double
 * reads whole into a finite double, ',' follows each value of a row and
 * '\n' the last.  1 when ``s`` is such rows, 0 when it is not, -1 with an
 * exception set.  ``s`` is only read, and not past its NUL. */
static int
parse_body(const char *s, Py_ssize_t rows, double *v)
{
    const char *p = s;
    for (Py_ssize_t r = 0; r < rows; r++)
        for (int c = 0; c < ROW; c++, v++) {
            char sep = c + 1 < ROW ? ',' : '\n';
            const char *q = parse_fast(p, v);
            if (q == NULL || *q != sep) {
                q = p;
                while (number_char(*q))
                    q++;
                if (q == p || *q != sep)
                    return 0;
                /* the token ends at a separator, so the parse cannot run past it */
                char *stop;
                double x = PyOS_string_to_double(p, &stop, NULL);
                if (x == -1.0 && PyErr_Occurred()) {
                    if (!PyErr_ExceptionMatches(PyExc_ValueError))
                        return -1;
                    PyErr_Clear();
                    return 0;
                }
                if (stop != q || !isfinite(x))
                    return 0;
                *v = x;
            }
            p = q + 1;
        }
    return 1;
}

static PyObject *
parse_rows(PyObject *Py_UNUSED(self), PyObject *fh)
{
    Py_ssize_t len;
    PyObject *text = PyObject_CallMethod(fh, "read", NULL);
    if (text == NULL) {
        /* an undecodable body, as the Python twin's parser treats it */
        if (!PyErr_ExceptionMatches(PyExc_ValueError))
            return NULL;
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    PyObject *result = NULL;
    const char *s = PyUnicode_AsUTF8AndSize(text, &len);
    if (s == NULL)
        goto done;
    /* one row per '\n', and a value takes two characters at least */
    Py_ssize_t rows = 0;
    for (const char *p = s; (p = memchr(p, '\n', s + len - p)) != NULL; p++)
        rows++;
    if ((len && s[len - 1] != '\n') || (rows && ROW > len / 2 / rows)) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    result = PyBytes_FromStringAndSize(NULL, rows * ROW * (Py_ssize_t)sizeof(double));
    if (result == NULL)
        goto done;
    double *v = (double *)PyBytes_AS_STRING(result);
    int ok = parse_body(s, rows, v);
    if (ok <= 0)
        Py_SETREF(result, ok ? NULL : Py_NewRef(Py_None));
done:
    Py_DECREF(text);
    return result;
}

static PyMethodDef methods[] = {
    {"reference", reference, METH_VARARGS,
     "Fill the float64 buffer ``out`` with the angle samples of the reference-generating "
     "loop and return whether every state was finite; the C twin of "
     "``_kernels_py.reference``."},
    {"run_loop", run_loop, METH_VARARGS,
     "The ``n`` rows of a closed-loop run as row-major doubles, and whether it diverged; "
     "the C twin of ``_kernels_py.run_loop``."},
    {"format_rows", format_rows, METH_O,
     "The rows of 13 values of a C-contiguous float64 ``block`` as CSV bytes: ``%.17g`` "
     "values, ',' between them, '\\n' after each row."},
    {"parse_rows", parse_rows, METH_O,
     "The rest of the text file ``fh`` as 13-value rows: the finite row-major doubles as "
     "bytes, or None for a body that is not strict rows of ``[0-9.eE+-]`` tokens with a "
     "'\\n' after each."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "mfclab._kernels",
    .m_doc = "Compiled kernels, the C twin of ``mfclab._kernels_py``.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    pow5[0] = pow10[0] = 1;
    for (int n = 1; n < 33; n++)
        pow5[n] = 5 * pow5[n - 1];
    for (int n = 1; n < 23; n++)
        pow10[n] = 10 * pow10[n - 1];
    for (int n = 1; n < 27; n++) {
        /* 2^(127+b) / 5^n as 2^64 * (2^(63+b) / 5^n): 5^n < 2^61, so the
         * numerator fits and the remainder shifted by 64 bits does too */
        int b = 64 - __builtin_clzll((uint64_t)pow5[n]);
        u128 num = (u128)1 << (63 + b), quo = num / pow5[n];
        inv5[n] = quo << 64 | ((num - quo * pow5[n]) << 64) / pow5[n];
        pow5_bits[n] = b;
    }
    PyObject *m = PyModule_Create(&module);
    /* no entry points, but perfbench/spans.py looks both names up to wrap
     * them; None, as in the Python twin, keeps its traced run going */
    if (m != NULL && (PyModule_AddStringConstant(m, "BACKEND_NAME", "compiled") < 0
                      || PyModule_AddObjectRef(m, "rk4_advance", Py_None) < 0
                      || PyModule_AddObjectRef(m, "trajgen_advance", Py_None) < 0))
        Py_CLEAR(m);
    return m;
}
