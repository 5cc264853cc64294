"""Pure-Python cart-pendulum kernels.

Fallback twin of the compiled extension ``_kernels``; both expose the same
three functions with identical argument order and the same arithmetic in
the same order, so both return the same bits.  Everything here is plain
scalar float math so the module has no dependencies.
"""

from math import cos, sin, tanh

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


def _reference_force(x, x_dot, theta_dot, cx, cth):
    """Weak state feedback used to generate the reference swing."""
    return -cx * x_dot - 0.5 * cth * theta_dot - 0.1 * cx * x


def _rk4(x, theta, x_dot, theta_dot, force, feedback, h,
         mc, mp, lp, ip, grav, cx, cth):
    """One classical RK4 step of length ``h``.  With ``feedback`` set the
    force is ``_reference_force`` of each stage's state.

    Stage i evaluates the derivative at (xi, ti, xdi, tdi): its position
    rates are the stage velocities, its velocity rates (ai, bi).
    """
    h2 = 0.5 * h
    if feedback:
        force = _reference_force(x, x_dot, theta_dot, cx, cth)
    a1, b1 = pendulum_accel(x, theta, x_dot, theta_dot, force,
                            mc, mp, lp, ip, grav, cx, cth)
    x2 = x + h2 * x_dot
    t2 = theta + h2 * theta_dot
    xd2 = x_dot + h2 * a1
    td2 = theta_dot + h2 * b1
    if feedback:
        force = _reference_force(x2, xd2, td2, cx, cth)
    a2, b2 = pendulum_accel(x2, t2, xd2, td2, force,
                            mc, mp, lp, ip, grav, cx, cth)
    x3 = x + h2 * xd2
    t3 = theta + h2 * td2
    xd3 = x_dot + h2 * a2
    td3 = theta_dot + h2 * b2
    if feedback:
        force = _reference_force(x3, xd3, td3, cx, cth)
    a3, b3 = pendulum_accel(x3, t3, xd3, td3, force,
                            mc, mp, lp, ip, grav, cx, cth)
    x4 = x + h * xd3
    t4 = theta + h * td3
    xd4 = x_dot + h * a3
    td4 = theta_dot + h * b3
    if feedback:
        force = _reference_force(x4, xd4, td4, cx, cth)
    a4, b4 = pendulum_accel(x4, t4, xd4, td4, force,
                            mc, mp, lp, ip, grav, cx, cth)
    h6 = h / 6.0
    return (x + h6 * (x_dot + 2.0 * xd2 + 2.0 * xd3 + xd4),
            theta + h6 * (theta_dot + 2.0 * td2 + 2.0 * td3 + td4),
            x_dot + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            theta_dot + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4))


def rk4_advance(x, theta, x_dot, theta_dot, force, dt, substeps,
                mc, mp, lp, ip, grav, cx, cth):
    """Advance by ``dt`` using ``substeps`` RK4 steps, zero-order-hold force."""
    h = dt / substeps
    for _ in range(substeps):
        x, theta, x_dot, theta_dot = _rk4(
            x, theta, x_dot, theta_dot, force, False, h,
            mc, mp, lp, ip, grav, cx, cth)
    return x, theta, x_dot, theta_dot


def trajgen_advance(x, theta, x_dot, theta_dot, dt, substeps,
                    mc, mp, lp, ip, grav, cx, cth):
    """Advance the reference-generating closed loop by ``dt``.

    Unlike ``rk4_advance`` the force is re-evaluated from the state at
    every RK4 stage (continuous feedback, no hold).
    """
    h = dt / substeps
    for _ in range(substeps):
        x, theta, x_dot, theta_dot = _rk4(
            x, theta, x_dot, theta_dot, 0.0, True, h,
            mc, mp, lp, ip, grav, cx, cth)
    return x, theta, x_dot, theta_dot
