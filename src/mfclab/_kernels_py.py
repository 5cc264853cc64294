"""Pure-Python kernels: the whole SISO closed loop, the cart-pendulum
reference and the codec of the CSV log's body.

Fallback twin of the compiled extension ``_kernels``; both expose the same
four functions, ``reference``, ``run_loop``, ``format_rows`` and
``parse_rows``, with identical argument order, and the same two constants,
``_SUBSTEPS`` and ``_ROW``.  The loop and the reference are plain scalar
float math, written with the same arithmetic in the same order as the C
twin, so both return the same bits.

The truth advance of ``run_loop`` and the reference run one substep loop,
``_advance``, with the four RK4 stages and the cart-pendulum accelerations
written inline.  The products that do not depend on the state are
computed once per call: ``h2``, ``h6``, ``a11 = mc + mp``, ``mp * lp``,
``a22``, ``mp * grav * lp``, ``0.5 * cth`` and ``0.1 * cx``, with the exact
negations ``-(mp * lp)`` and ``-cx``.  Each is the left operand of a
left-associative chain in the accelerations as ``pendulum_accel`` of
``tests/oracle.py`` writes them (``mp * lp * td * td * si`` is
``(((mp * lp) * td) * td) * si``), so hoisting it changes no rounding;
``-mp * lp * co`` is ``((-mp) * lp) * co``, and since IEEE multiplication
is sign-symmetric ``(-mp) * lp == -(mp * lp)``.  ``tests/test_backends.py``
checks ``_advance`` against the stage-by-stage RK4 over that
``pendulum_accel``, bit for bit.

``run_loop`` steps the closed loop of ``harness.run_closed_loop`` on
floats.  It states no law of its own: each step calls the library's
float functions, ``core.float_gain``, ``observers.fts_observer_step``,
``ulm.f_of_differences`` (the pendulum's F, and its true F) or
``f_of_second_difference`` (the synthetic plant's),
``ulm.first_order_step`` or ``second_order_step``,
``controller.control_rhs_second_order`` and ``influence_gain``, and
``plants.synthetic_ulm_plant_step`` or ``_advance`` for the truth, and it
draws the noise with ``plants._bump_sampler`` from numpy's
``Generator(PCG64(seed)).random``; the C twin writes the same arithmetic
inline and computes the same stream itself.  The gains call ``math``'s
``exp``, ``log``, ``tanh`` and ``sqrt``, which are the C library's, as the
C twin calls them.

The codec: ``format_rows`` formats a block with one bytes ``%`` of
``%.17g`` fields, and ``parse_rows`` parses the rest of a file with one
call of numpy's ``loadtxt``.  The C twin writes the same bytes.  Where both
parse a body they give the same bits; each may return None for a body the
other parses, and the caller then reads it line by line.
"""

import operator
import warnings
from array import array
from math import cos, isfinite, nan, sin, tanh

import numpy as np

BACKEND_NAME = "python"

_ROW = 13  # values per row of the log
_SUBSTEPS = 10  # RK4 steps per control period of the truth and the reference
# the CSV text of one row of the log
_ROW_FORMAT = b",".join([b"%.17g"] * _ROW) + b"\n"

# no entry points, but perfbench/spans.py looks both names up to wrap them;
# None, as in the C twin, keeps its traced run going (their metrics read 0)
rk4_advance = trajgen_advance = None


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


def _doubles(buffer, name):
    """The C-contiguous float64 ``buffer`` as a flat memoryview of doubles."""
    view = memoryview(buffer)
    if not view.c_contiguous or view.format != "d":
        raise TypeError(f"{name}() takes a C-contiguous buffer of doubles")
    return view.cast("B").cast("d")


def _step(state, force, feedback, dt, substeps, params):
    """The raw ``state`` advanced by ``_advance``, or None for a non-finite
    one.  Where C gives inf or NaN, Python raises: ``math``'s trig on an
    infinite angle, and a zero determinant, which valid constants rule out."""
    try:
        state = _advance(*state, force, feedback, dt, substeps, *params)
    except (ValueError, ZeroDivisionError):
        return None
    return state if all(map(isfinite, state)) else None


def reference(out, x, theta, x_dot, theta_dot, dt, mc, mp, lp, ip, grav, cx, cth):
    """Fill the float64 buffer ``out`` with the angle samples of the
    reference-generating loop, ``out[0]`` being ``theta``, and return
    whether every state was finite.

    Between samples the state advances by ``dt`` in ``_SUBSTEPS`` RK4 steps,
    the force re-evaluated from the state at every stage (continuous
    feedback, no hold).  At the first non-finite state the loop returns
    False, with the samples before it written.
    """
    samples = _doubles(out, "reference")
    params = (mc, mp, lp, ip, grav, cx, cth)
    state = (x, theta, x_dot, theta_dot)
    for k in range(len(samples)):
        if k:
            state = _step(state, 0.0, True, dt, _SUBSTEPS, params)
        elif not all(map(isfinite, state)):
            state = None
        if state is None:
            return False
        samples[k] = state[1]
    return True


def run_loop(ow, omargin, oa, uw, umargin, ua, cw, cmargin, ca,
             adaptive, influence, mu, second_order, oracle_f, f_hat_bias, dt, n,
             y_d, y_hat0, truth, params, f_signal, width, seed):
    """The ``n`` rows of a closed-loop run, row-major, and whether it
    diverged.

    The observer, ULM and controller gains are ``(w, margin, a)`` each,
    the arguments of ``core.float_gain``.  The influence is the fixed
    value ``influence``, or with ``adaptive`` set the adaptive one of base
    ``influence``.  ``y_d`` is the reference, ``n + 2 - lag`` doubles, and
    ``y_hat0`` the initial estimate.  The plant is the cart-pendulum when
    ``params`` holds its seven constants: ``truth`` is its raw state,
    advanced by ``_SUBSTEPS`` RK4 steps per period, and its lag is 1.
    Otherwise (``params`` None) it is the synthetic plant: ``truth`` is
    ``(y0, y1)``, ``f_signal`` the ``n`` values of its forcing, and its lag
    is 0.  ``seed`` seeds the noise stream, numpy's
    ``Generator(PCG64(seed))``, whose bump samples of support ``width`` are
    added to the measurements; None is no noise.  It is an int by the index
    protocol (a float is a TypeError) and not negative (a ValueError).

    At step k the law anchors at j = k - lag: it uses the errors at
    (j, j+1) and y_d[j..j+2], and shapes y[j+2].  F is reconstructed from
    the signal window [j-1, j+1] with the input effect of step k-1, the
    input that shaped y[j+1].  The pendulum's law reads the observer
    estimates, the synthetic plant's its exact outputs.  A non-finite
    input at step k keeps k rows; a failed advance after step k keeps
    k + lag rows.
    """
    # the library's steps, looked up per run: a substituted one takes effect
    from . import controller, core, observers, plants, ulm

    observe = observers.fts_observer_step
    f_of_differences, f_of_second_difference = ulm.f_of_differences, ulm.f_of_second_difference
    first_order_step, second_order_step = ulm.first_order_step, ulm.second_order_step
    law, influence_gain = controller.control_rhs_second_order, controller.influence_gain
    plant_step = plants.synthetic_ulm_plant_step
    observer_gain = core.float_gain(ow, omargin, oa)
    ulm_gain = core.float_gain(uw, umargin, ua)
    ctl_gain = core.float_gain(cw, cmargin, ca)
    noise = None
    if seed is not None:
        # numpy also takes a str or a sequence as a seed; an int by the index
        # protocol is what the C twin takes
        random = np.random.Generator(np.random.PCG64(operator.index(seed))).random
        noise = plants._bump_sampler(width, random)
    y_d = memoryview(y_d).tolist()
    pendulum = params is not None
    lag = 1 if pendulum else 0
    if pendulum:
        state = tuple(truth)
        y_true = [state[1]]
    else:
        y_true = [truth[0], truth[1]]
        f_signal = memoryview(f_signal).tolist()
    y_hat = []
    signal = y_hat if pendulum else y_true
    reconstruct = f_of_differences if pendulum else f_of_second_difference
    rows = array("d")
    # the F estimator: its estimate, the last value it absorbed (None
    # before the first) and, second order only, its estimate of F's first
    # difference
    f_hat = 0.0
    f_prev = None
    delta_hat = 0.0
    e_o = 0.0  # observer estimate minus measurement
    effect = 0.0  # G u of the previous step
    for k in range(n):
        y_k = y_true[k]
        y_m = y_k + (noise() if noise is not None else 0.0)
        if k == 0:
            y_hat_k = y_hat0
            e_o = y_hat_k - y_m
        else:
            y_hat_k, e_o = observe(y_m, e_o, observer_gain)
        y_hat.append(y_hat_k)

        j = k - lag
        if j >= 1:
            f_new = reconstruct(signal[j - 1], signal[j], signal[j + 1], effect)
            if not second_order:
                f_hat = first_order_step(f_hat, f_new, ulm_gain)
            elif f_prev is not None:
                f_hat, delta_hat = second_order_step(f_hat, delta_hat, f_prev, f_new, ulm_gain)
            f_prev = f_new
        if not pendulum:
            f_true_k = f_signal[k]
        elif k < 2:
            # the newest value reconstructable from truth; none before step 2
            f_true_k = 0.0
        else:
            f_true_k = f_of_differences(y_true[k - 2], y_true[k - 1], y_true[k], effect)
        # the bias is added even when it is 0.0: that turns -0.0 into 0.0
        f_hat_k = (f_true_k if oracle_f else f_hat) + f_hat_bias

        if j >= 0:
            s_k, rhs, feedback_total = law(
                signal[j] - y_d[j], signal[j + 1] - y_d[j + 1],
                y_d[j], y_d[j + 1], y_d[j + 2], f_hat_k, mu, ctl_gain,
            )
            g_k = influence_gain(adaptive, influence, feedback_total)
            u_k = rhs / g_k
            if not isfinite(u_k):
                return rows, True
        else:
            s_k = 0.0
            g_k = influence_gain(adaptive, influence, 0.0)
            u_k = 0.0
        effect = g_k * u_k

        rows.extend((
            k * dt, y_d[k], y_k, y_m, y_hat_k, y_k - y_d[k], e_o,
            f_true_k, f_hat_k, f_hat_k - f_true_k, s_k, u_k, g_k,
        ))
        if k < n - lag:
            if pendulum:
                state = _step(state, u_k, False, dt, _SUBSTEPS, params)
                y_next = nan if state is None else state[1]
            else:
                y_next = plant_step(y_true[k], y_true[k + 1], f_true_k, g_k, u_k)
            if not isfinite(y_next):
                del rows[(k + lag) * _ROW :]
                return rows, True
            y_true.append(y_next)
    return rows, False


def format_rows(block):
    """The rows of ``_ROW`` values of a C-contiguous float64 ``block`` as CSV
    bytes: ``%.17g`` values, ',' between them, '\\n' after each row."""
    values = _doubles(block, "format_rows")
    if len(values) % _ROW:
        raise ValueError(f"format_rows() got {len(values)} values, not rows of {_ROW}")
    return (_ROW_FORMAT * (len(values) // _ROW)) % tuple(values)


def parse_rows(fh):
    """The rest of the text file ``fh`` as ``_ROW``-value rows: the finite
    row-major doubles as an array, or None for a body that ``loadtxt`` does
    not parse into such rows, an empty one included."""
    # an empty body warns "input contained no data"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    if data.shape[1] != _ROW or not np.isfinite(data).all():
        return None
    return data
