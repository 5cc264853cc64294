/* Compiled kernels: the hot inner loops of the simulator and the codec of
 * the CSV log's body.
 *
 * Twin of ``_kernels_py``: the same five functions with the same argument
 * order.  The cart-pendulum kernels write the arithmetic expression for
 * expression in the same order, so both backends return the same bits.
 * That holds when the compiler does not contract a*b + c into a fused
 * multiply-add (gcc's default on x86-64; setup.py passes -ffp-contract=off
 * for targets with FMA).
 *
 * As in the Python twin, the products that do not depend on the state are
 * formed once per call: ``get_params`` derives a11 = mc + mp, mp * lp,
 * a22, mp * grav * lp, 0.5 * cth and 0.1 * cx, and ``advance`` h2 and h6.
 * Each is the left operand of a left-associative chain in the accelerations
 * (mp * lp * td * td * si is (((mp * lp) * td) * td) * si), so hoisting it
 * changes no rounding; -mp * lp * co is ((-mp) * lp) * co, and IEEE
 * multiplication is sign-symmetric, so (-mp) * lp == -(mp * lp).
 *
 * The codec calls the functions Python's own conversions call:
 * ``format_rows`` formats each value with PyOS_double_to_string(x, 'g', 17,
 * 0, NULL), which is what ``b"%.17g" % x`` runs, so it writes the Python
 * twin's bytes.  ``parse_rows`` reads each token with
 * PyOS_string_to_double, which ``float`` and numpy's ``loadtxt`` run, but
 * only from strict rows (see ``parse_body``); for any other body it returns
 * None, and the caller reads the file line by line.
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

/* ---- the CSV log's body codec ------------------------------------------ */

/* ``ncols`` by the index protocol, as the Python twin's ``operator.index``
 * takes it. */
static int
get_ncols(PyObject *arg, Py_ssize_t *ncols)
{
    *ncols = PyNumber_AsSsize_t(arg, PyExc_OverflowError);
    return *ncols == -1 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *
format_rows(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer view;
    Py_ssize_t ncols;
    if (check_nargs("format_rows", nargs, 2) < 0
        || get_ncols(args[1], &ncols) < 0
        || PyObject_GetBuffer(args[0], &view, PyBUF_STRIDES | PyBUF_FORMAT) < 0)
        return NULL;
    PyObject *result = NULL;
    char *out = NULL;
    if (!PyBuffer_IsContiguous(&view, 'C') || view.itemsize != (Py_ssize_t)sizeof(double)
        || strcmp(view.format, "d") != 0) {
        PyErr_SetString(PyExc_TypeError, "format_rows() takes a C-contiguous buffer of doubles");
        goto done;
    }
    Py_ssize_t n = view.len / (Py_ssize_t)sizeof(double);
    if (ncols < 1 || n % ncols != 0) {
        PyErr_Format(PyExc_ValueError, "format_rows() got %zd values, not rows of %zd", n,
                     ncols);
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
    for (Py_ssize_t i = 0; i < n; i++) {
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
        out[used++] = (i + 1) % ncols ? ',' : '\n';
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

/* Parse ``s[0:len]`` into ``total`` doubles ``v``, row-major.  Strict rows
 * only: every token is a run of [0-9.eE+-] that PyOS_string_to_double reads
 * whole into a finite double, ',' follows each value of a row and '\n' the
 * last.  1 when ``s`` is such rows, 0 when it is not, -1 with an exception
 * set.  ``s`` is only read. */
static int
parse_body(const char *s, Py_ssize_t len, Py_ssize_t total, Py_ssize_t ncols, double *v)
{
    const char *p = s, *end = s + len;
    for (Py_ssize_t i = 0; i < total; i++) {
        const char *q = p;
        while (q < end && number_char(*q))
            q++;
        if (q == p || q == end || *q != ((i + 1) % ncols ? ',' : '\n'))
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
        v[i] = x;
        p = q + 1;
    }
    return 1;
}

static PyObject *
parse_rows(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t ncols, len;
    if (check_nargs("parse_rows", nargs, 2) < 0
        || get_ncols(args[1], &ncols) < 0)
        return NULL;
    PyObject *text = PyObject_CallMethod(args[0], "read", NULL);
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
    if (ncols < 1 || (len && s[len - 1] != '\n') || (rows && ncols > len / 2 / rows)) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    result = PyBytes_FromStringAndSize(NULL, rows * ncols * (Py_ssize_t)sizeof(double));
    if (result == NULL)
        goto done;
    double *v = (double *)PyBytes_AS_STRING(result);
    int ok = parse_body(s, len, rows * ncols, ncols, v);
    if (ok <= 0)
        Py_SETREF(result, ok ? NULL : Py_NewRef(Py_None));
done:
    Py_DECREF(text);
    return result;
}

#define ENTRY(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    ENTRY(pendulum_accel, "Accelerations (xdd, thdd) of the cart-pendulum under ``force``."),
    ENTRY(rk4_advance, "Advance by ``dt`` using ``substeps`` RK4 steps, zero-order-hold force."),
    ENTRY(trajgen_advance, "Advance the reference-generating closed loop by ``dt``; the force "
                           "is re-evaluated from the state at every RK4 stage."),
    ENTRY(format_rows, "The rows of ``ncols`` values of a C-contiguous float64 ``block`` as CSV "
                       "bytes: ``%.17g`` values, ',' between them, '\\n' after each row."),
    ENTRY(parse_rows, "The rest of the text file ``fh`` as ``ncols``-value rows: the finite "
                      "row-major doubles as bytes, or None for a body that is not strict "
                      "rows of ``[0-9.eE+-]`` tokens with a '\\n' after each."),
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
