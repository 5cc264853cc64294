"""Pure-Python cart-pendulum kernels.

Fallback twin of the compiled extension ``_kernels``; both expose the same
functions with identical argument order and the same arithmetic in the same
order, so both return the same bits.  Everything here is plain scalar float
math so the module has no dependencies.
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


def rk4_step(x, theta, x_dot, theta_dot, force, dt,
             mc, mp, lp, ip, grav, cx, cth):
    """One classical RK4 step with the force held constant."""
    k1x = x_dot
    k1t = theta_dot
    k1xd, k1td = pendulum_accel(x, theta, x_dot, theta_dot, force,
                                mc, mp, lp, ip, grav, cx, cth)

    h2 = 0.5 * dt
    k2x = x_dot + h2 * k1xd
    k2t = theta_dot + h2 * k1td
    k2xd, k2td = pendulum_accel(x + h2 * k1x, theta + h2 * k1t,
                                x_dot + h2 * k1xd, theta_dot + h2 * k1td,
                                force, mc, mp, lp, ip, grav, cx, cth)

    k3x = x_dot + h2 * k2xd
    k3t = theta_dot + h2 * k2td
    k3xd, k3td = pendulum_accel(x + h2 * k2x, theta + h2 * k2t,
                                x_dot + h2 * k2xd, theta_dot + h2 * k2td,
                                force, mc, mp, lp, ip, grav, cx, cth)

    k4x = x_dot + dt * k3xd
    k4t = theta_dot + dt * k3td
    k4xd, k4td = pendulum_accel(x + dt * k3x, theta + dt * k3t,
                                x_dot + dt * k3xd, theta_dot + dt * k3td,
                                force, mc, mp, lp, ip, grav, cx, cth)

    h6 = dt / 6.0
    return (x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            theta + h6 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t),
            x_dot + h6 * (k1xd + 2.0 * k2xd + 2.0 * k3xd + k4xd),
            theta_dot + h6 * (k1td + 2.0 * k2td + 2.0 * k3td + k4td))


def rk4_advance(x, theta, x_dot, theta_dot, force, dt, substeps,
                mc, mp, lp, ip, grav, cx, cth):
    """Advance by ``dt`` using ``substeps`` RK4 steps, zero-order-hold force."""
    h = dt / substeps
    for _ in range(substeps):
        x, theta, x_dot, theta_dot = rk4_step(
            x, theta, x_dot, theta_dot, force, h,
            mc, mp, lp, ip, grav, cx, cth)
    return x, theta, x_dot, theta_dot


def reference_force(x, x_dot, theta_dot, cx, cth):
    """Weak state feedback used to generate the reference swing."""
    return -cx * x_dot - 0.5 * cth * theta_dot - 0.1 * cx * x


def _feedback_deriv(x, theta, x_dot, theta_dot,
                    mc, mp, lp, ip, grav, cx, cth):
    force = reference_force(x, x_dot, theta_dot, cx, cth)
    xdd, thdd = pendulum_accel(x, theta, x_dot, theta_dot, force,
                               mc, mp, lp, ip, grav, cx, cth)
    return x_dot, theta_dot, xdd, thdd


def trajgen_advance(x, theta, x_dot, theta_dot, dt, substeps,
                    mc, mp, lp, ip, grav, cx, cth):
    """Advance the reference-generating closed loop by ``dt``.

    Unlike ``rk4_advance`` the force is re-evaluated from the state at
    every RK4 stage (continuous feedback, no hold).
    """
    h = dt / substeps
    h2 = 0.5 * h
    h6 = h / 6.0
    for _ in range(substeps):
        k1x, k1t, k1xd, k1td = _feedback_deriv(
            x, theta, x_dot, theta_dot, mc, mp, lp, ip, grav, cx, cth)
        k2x, k2t, k2xd, k2td = _feedback_deriv(
            x + h2 * k1x, theta + h2 * k1t,
            x_dot + h2 * k1xd, theta_dot + h2 * k1td,
            mc, mp, lp, ip, grav, cx, cth)
        k3x, k3t, k3xd, k3td = _feedback_deriv(
            x + h2 * k2x, theta + h2 * k2t,
            x_dot + h2 * k2xd, theta_dot + h2 * k2td,
            mc, mp, lp, ip, grav, cx, cth)
        k4x, k4t, k4xd, k4td = _feedback_deriv(
            x + h * k3x, theta + h * k3t,
            x_dot + h * k3xd, theta_dot + h * k3td,
            mc, mp, lp, ip, grav, cx, cth)
        x = x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        theta = theta + h6 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        x_dot = x_dot + h6 * (k1xd + 2.0 * k2xd + 2.0 * k3xd + k4xd)
        theta_dot = theta_dot + h6 * (k1td + 2.0 * k2td + 2.0 * k3td + k4td)
    return x, theta, x_dot, theta_dot
