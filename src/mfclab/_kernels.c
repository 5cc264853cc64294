/* Compiled cart-pendulum kernels: the hot inner loops of the simulator.
 *
 * Twin of ``_kernels_py``: the same three functions with the same argument
 * order, and the arithmetic written expression for expression in the same
 * order, so both backends return the same bits.  That holds when the
 * compiler does not contract a*b + c into a fused multiply-add (gcc's
 * default on x86-64; setup.py passes -ffp-contract=off for targets with
 * FMA).
 *
 * As in the Python twin, the products that do not depend on the state are
 * formed once per call: ``get_params`` derives a11 = mc + mp, mp * lp,
 * a22, mp * grav * lp, 0.5 * cth and 0.1 * cx, and ``advance`` h2 and h6.
 * Each is the left operand of a left-associative chain in the accelerations
 * (mp * lp * td * td * si is (((mp * lp) * td) * td) * si), so hoisting it
 * changes no rounding; -mp * lp * co is ((-mp) * lp) * co, and IEEE
 * multiplication is sign-symmetric, so (-mp) * lp == -(mp * lp).
 *
 * Build in place with ``python setup.py build_ext --inplace``.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* What the kernels read of the seven pendulum constants (mc, mp, lp, ip,
 * grav, cx, cth in ``PendulumParams.as_tuple()`` order), derived once per
 * call by ``get_params``. */
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

/* ---- argument conversion and results ---------------------------------- */

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes exactly %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

static int
get_doubles(PyObject *const *args, Py_ssize_t n, double *out)
{
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(args[i]);
        if (out[i] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static int
get_params(PyObject *const *args, Params *p)
{
    double c[7];
    if (get_doubles(args, 7, c) < 0)
        return -1;
    double mc = c[0], mp = c[1], lp = c[2], ip = c[3], grav = c[4], cx = c[5], cth = c[6];
    double ml = mp * lp;
    *p = (Params){.a11 = mc + mp, .ml = ml, .a22 = ip + ml * lp, .mgl = mp * grav * lp,
                  .cx = cx, .cth = cth, .rth = 0.5 * cth, .rx = 0.1 * cx};
    return 0;
}

/* ``substeps`` by the index protocol, as ``range`` takes it: a float is
 * a TypeError.  Zero is the ZeroDivisionError of ``dt / substeps``. */
static int
get_substeps(PyObject *arg, long *n)
{
    *n = PyLong_AsLong(arg);
    if (*n == -1 && PyErr_Occurred())
        return -1;
    if (*n == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    return 0;
}

static PyObject *
pack(const double *v, Py_ssize_t n)
{
    PyObject *tuple = PyTuple_New(n);
    if (tuple == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PyFloat_FromDouble(v[i]);
        if (item == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, i, item);
    }
    return tuple;
}

/* ---- entry points ------------------------------------------------------ */

static PyObject *
pendulum_accel(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double v[5], a[2];
    Params p;
    if (check_nargs("pendulum_accel", nargs, 12) < 0 || get_doubles(args, 5, v) < 0
        || get_params(args + 5, &p) < 0)
        return NULL;
    accel(v[1], v[2], v[3], v[4], &p, &a[0], &a[1]);
    return pack(a, 2);
}

static PyObject *
rk4_advance(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double v[6];
    long n;
    Params p;
    if (check_nargs("rk4_advance", nargs, 14) < 0 || get_doubles(args, 6, v) < 0
        || get_substeps(args[6], &n) < 0 || get_params(args + 7, &p) < 0)
        return NULL;
    advance(v, v[4], 0, v[5], n, &p);
    return pack(v, 4);
}

static PyObject *
trajgen_advance(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    double v[5];
    long n;
    Params p;
    if (check_nargs("trajgen_advance", nargs, 13) < 0 || get_doubles(args, 5, v) < 0
        || get_substeps(args[5], &n) < 0 || get_params(args + 6, &p) < 0)
        return NULL;
    advance(v, 0.0, 1, v[4], n, &p);
    return pack(v, 4);
}

#define ENTRY(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    ENTRY(pendulum_accel, "Accelerations (xdd, thdd) of the cart-pendulum under ``force``."),
    ENTRY(rk4_advance, "Advance by ``dt`` using ``substeps`` RK4 steps, zero-order-hold force."),
    ENTRY(trajgen_advance, "Advance the reference-generating closed loop by ``dt``; the force "
                           "is re-evaluated from the state at every RK4 stage."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "mfclab._kernels",
    .m_doc = "Compiled cart-pendulum kernels, the C twin of ``mfclab._kernels_py``.",
    .m_size = 0,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND_NAME", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
