"""Pure-Python kernels: the cart-pendulum dynamics and the codec of the CSV
log's body.

Fallback twin of the compiled extension ``_kernels``; both expose the same
five functions with identical argument order.  The cart-pendulum kernels
are plain scalar float math, written with the same arithmetic in the same
order as the C twin, so both return the same bits.

Both advances run one substep loop, ``_advance``, with the four RK4 stages
and the accelerations of ``pendulum_accel`` written inline.  The products
that do not depend on the state are computed once per call: ``h2``,
``h6``, ``a11 = mc + mp``, ``mp * lp``, ``a22``, ``mp * grav * lp``,
``0.5 * cth`` and ``0.1 * cx``, with the exact negations ``-(mp * lp)``
and ``-cx``.  Each is the left operand of a left-associative chain in
``pendulum_accel`` (``mp * lp * td * td * si`` is
``(((mp * lp) * td) * td) * si``), so hoisting it changes no rounding;
``-mp * lp * co`` is ``((-mp) * lp) * co``, and since IEEE multiplication
is sign-symmetric ``(-mp) * lp == -(mp * lp)``.

The codec: ``format_rows`` formats a block with one bytes ``%`` of
``%.17g`` fields, and ``parse_rows`` parses the rest of a file with one
call of numpy's ``loadtxt``.  The C twin writes the same bytes.  Where both
parse a body they give the same bits; each may return None for a body the
other parses, and the caller then reads it line by line.
"""

import operator
import warnings
from math import cos, sin, tanh

import numpy as np

BACKEND_NAME = "python"


def pendulum_accel(x, theta, x_dot, theta_dot, force,
                   mc, mp, lp, ip, grav, cx, cth):
    """Accelerations (xdd, thdd) of the cart-pendulum under ``force``."""
    co = cos(theta)
    si = sin(theta)
    a11 = mc + mp
    a12 = -mp * lp * co
    a22 = ip + mp * lp * lp
    b1 = force - (mp * lp * theta_dot * theta_dot * si + cx * tanh(x_dot))
    b2 = mp * grav * lp * si - cth * tanh(theta_dot)
    det = a11 * a22 - a12 * a12
    xdd = (a22 * b1 - a12 * b2) / det
    thdd = (a11 * b2 - a12 * b1) / det
    return xdd, thdd


def _advance(x, th, xd, td, force, feedback, dt, substeps,
             mc, mp, lp, ip, grav, cx, cth):
    """``substeps`` classical RK4 steps of length ``dt / substeps``.

    With ``feedback`` set the force is the reference feedback
    ``-cx * x_dot - 0.5 * cth * theta_dot - 0.1 * cx * x`` of each stage's
    state, otherwise ``force`` is held.  Stage i evaluates the derivative
    at (xi, ti, xdi, tdi): its position rates are the stage velocities,
    its velocity rates (xddi, tddi).  A stage's cart position only enters
    the feedback force, so it is formed only there.
    """
    h = dt / substeps
    h2 = 0.5 * h
    h6 = h / 6.0
    a11 = mc + mp
    ml = mp * lp
    nml = -ml
    a22 = ip + ml * lp
    mgl = mp * grav * lp
    ncx = -cx
    rth = 0.5 * cth
    rx = 0.1 * cx
    for _ in range(substeps):
        if feedback:
            force = ncx * xd - rth * td - rx * x
        co = cos(th)
        si = sin(th)
        a12 = nml * co
        r1 = force - (ml * td * td * si + cx * tanh(xd))
        r2 = mgl * si - cth * tanh(td)
        det = a11 * a22 - a12 * a12
        xdd1 = (a22 * r1 - a12 * r2) / det
        tdd1 = (a11 * r2 - a12 * r1) / det

        t2 = th + h2 * td
        xd2 = xd + h2 * xdd1
        td2 = td + h2 * tdd1
        if feedback:
            force = ncx * xd2 - rth * td2 - rx * (x + h2 * xd)
        co = cos(t2)
        si = sin(t2)
        a12 = nml * co
        r1 = force - (ml * td2 * td2 * si + cx * tanh(xd2))
        r2 = mgl * si - cth * tanh(td2)
        det = a11 * a22 - a12 * a12
        xdd2 = (a22 * r1 - a12 * r2) / det
        tdd2 = (a11 * r2 - a12 * r1) / det

        t3 = th + h2 * td2
        xd3 = xd + h2 * xdd2
        td3 = td + h2 * tdd2
        if feedback:
            force = ncx * xd3 - rth * td3 - rx * (x + h2 * xd2)
        co = cos(t3)
        si = sin(t3)
        a12 = nml * co
        r1 = force - (ml * td3 * td3 * si + cx * tanh(xd3))
        r2 = mgl * si - cth * tanh(td3)
        det = a11 * a22 - a12 * a12
        xdd3 = (a22 * r1 - a12 * r2) / det
        tdd3 = (a11 * r2 - a12 * r1) / det

        t4 = th + h * td3
        xd4 = xd + h * xdd3
        td4 = td + h * tdd3
        if feedback:
            force = ncx * xd4 - rth * td4 - rx * (x + h * xd3)
        co = cos(t4)
        si = sin(t4)
        a12 = nml * co
        r1 = force - (ml * td4 * td4 * si + cx * tanh(xd4))
        r2 = mgl * si - cth * tanh(td4)
        det = a11 * a22 - a12 * a12
        xdd4 = (a22 * r1 - a12 * r2) / det
        tdd4 = (a11 * r2 - a12 * r1) / det

        x = x + h6 * (xd + 2.0 * xd2 + 2.0 * xd3 + xd4)
        th = th + h6 * (td + 2.0 * td2 + 2.0 * td3 + td4)
        xd = xd + h6 * (xdd1 + 2.0 * xdd2 + 2.0 * xdd3 + xdd4)
        td = td + h6 * (tdd1 + 2.0 * tdd2 + 2.0 * tdd3 + tdd4)
    return x, th, xd, td


def rk4_advance(x, theta, x_dot, theta_dot, force, dt, substeps,
                mc, mp, lp, ip, grav, cx, cth):
    """Advance by ``dt`` using ``substeps`` RK4 steps, zero-order-hold force."""
    return _advance(x, theta, x_dot, theta_dot, force, False, dt, substeps,
                    mc, mp, lp, ip, grav, cx, cth)


def trajgen_advance(x, theta, x_dot, theta_dot, dt, substeps,
                    mc, mp, lp, ip, grav, cx, cth):
    """Advance the reference-generating closed loop by ``dt``.

    Unlike ``rk4_advance`` the force is re-evaluated from the state at
    every RK4 stage (continuous feedback, no hold).
    """
    return _advance(x, theta, x_dot, theta_dot, 0.0, True, dt, substeps,
                    mc, mp, lp, ip, grav, cx, cth)


def format_rows(block, ncols):
    """The rows of ``ncols`` values of a C-contiguous float64 ``block`` as CSV
    bytes: ``%.17g`` values, ',' between them, '\\n' after each row."""
    ncols = operator.index(ncols)
    view = memoryview(block)
    if not view.c_contiguous or view.format != "d":
        raise TypeError("format_rows() takes a C-contiguous buffer of doubles")
    values = view.cast("B").cast("d")
    if ncols < 1 or len(values) % ncols:
        raise ValueError(f"format_rows() got {len(values)} values, not rows of {ncols}")
    row = b",".join([b"%.17g"] * ncols) + b"\n"
    return (row * (len(values) // ncols)) % tuple(values)


def parse_rows(fh, ncols):
    """The rest of the text file ``fh`` as ``ncols``-value rows: the finite
    row-major doubles as an array, or None for a body that ``loadtxt`` does
    not parse into such rows, an empty one included."""
    # an empty body warns "input contained no data"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if data.shape[1] != ncols or not np.isfinite(data).all():
        return None
    return data
