"""Independent high-precision reference implementation used by the tests.

Everything here is evaluated with mpmath at 60 significant digits, written
directly from the model formulas with no code shared with the package.
The FROZEN table pins reference numbers produced by this module (so a test
failure distinguishes "package drifted" from "oracle drifted"); the
functions are also called live for spot checks at arbitrary points.
"""

import mpmath as mp

mp.mp.dps = 60

R = mp.mpf("8.31446261815324")

# n-butane critical data and working conditions
TC = mp.mpf("425.2")
PC = mp.mpf("38.0e5")
OMEGA = mp.mpf("0.199")
T = mp.mpf("330.0")
C_GAS = mp.mpf("249.1123")
C_LIQ = mp.mpf("9526.8428")


def m_poly(omega):
    omega = mp.mpf(omega)
    if omega <= mp.mpf("0.49"):
        return mp.mpf("0.37464") + mp.mpf("1.54226") * omega - mp.mpf("0.26992") * omega**2
    return (mp.mpf("0.379642") + mp.mpf("1.485030") * omega
            - mp.mpf("0.164423") * omega**2 + mp.mpf("0.016666") * omega**3)


def alpha_beta(T=T, Tc=TC, Pc=PC, omega=OMEGA):
    m = m_poly(omega)
    Tr = T / Tc
    alpha = mp.mpf("0.45724") * R**2 * Tc**2 / Pc * (1 + m * (1 - mp.sqrt(Tr))) ** 2
    beta = mp.mpf("0.07780") * R * Tc / Pc
    return alpha, beta


def kappa_value(T=T, Tc=TC, Pc=PC, omega=OMEGA):
    alpha, beta = alpha_beta(T, Tc, Pc, omega)
    Tr = T / Tc
    a0 = -mp.mpf("1e-16") / (mp.mpf("1.2326") + mp.mpf("1.3757") * omega)
    a1 = mp.mpf("1e-16") / (mp.mpf("0.9051") + mp.mpf("1.5410") * omega)
    return alpha * beta ** (mp.mpf(2) / 3) * (a0 * (1 - Tr) + a1)


_ALPHA, _BETA = alpha_beta()
SQRT2 = mp.sqrt(2)


def f_terms(c):
    """(ideal, repulsion, attraction) free-energy densities."""
    c = mp.mpf(c)
    bc = _BETA * c
    ideal = c * R * T * mp.log(c)
    repulsion = -c * R * T * mp.log(1 - bc)
    attraction = (_ALPHA * c / (2 * SQRT2 * _BETA)
                  * mp.log((1 + (1 - SQRT2) * bc) / (1 + (1 + SQRT2) * bc)))
    return ideal, repulsion, attraction


def f_total(c):
    return mp.fsum(f_terms(c))


def mu_b(c):
    c = mp.mpf(c)
    bc = _BETA * c
    mu_ideal = R * T * (mp.log(c) + 1)
    mu_rep = -R * T * mp.log(1 - bc) + R * T * bc / (1 - bc)
    mu_att = (_ALPHA / (2 * SQRT2 * _BETA)
              * mp.log((1 + (1 - SQRT2) * bc) / (1 + (1 + SQRT2) * bc))
              - _ALPHA * c / (1 + 2 * bc - bc**2))
    return mu_ideal + mu_rep + mu_att


def mu_attraction(c):
    c = mp.mpf(c)
    bc = _BETA * c
    return (_ALPHA / (2 * SQRT2 * _BETA)
            * mp.log((1 + (1 - SQRT2) * bc) / (1 + (1 + SQRT2) * bc))
            - _ALPHA * c / (1 + 2 * bc - bc**2))


def pressure(c):
    c = mp.mpf(c)
    bc = _BETA * c
    return c * R * T / (1 - bc) - _ALPHA * c**2 / (1 + 2 * bc - bc**2)


def minimal_lambda(eps):
    eps = mp.mpf(eps)
    q = eps / (1 - eps) ** 2
    return q + mp.sqrt(q**2 - 2 * mp.log(1 - eps) * q)


def g_value(c, lam):
    c = mp.mpf(c)
    return mp.sqrt(lam * c - c * mp.log(1 - _BETA * c))


def g_prime(c, lam):
    c = mp.mpf(c)
    bc = _BETA * c
    return (lam - mp.log(1 - bc) + bc / (1 - bc)) / (2 * g_value(c, lam))


def nu(c, lam):
    return R * T * (1 / mp.mpf(c) + g_prime(c, lam) ** 2)


def s_r(c, lam):
    c = mp.mpf(c)
    gp = g_prime(c, lam)
    return (-R * T * mp.log(c)
            + R * T * (gp**2 * c - 2 * g_value(c, lam) * gp + lam)
            - mu_attraction(c))


def envelope_extrema(c_m, c_M, lam, n_scan=400):
    """(max of c_m*nu - s_r, min of c_M*nu - s_r) over [c_m, c_M].

    A uniform scan of ``n_scan`` cells finds the cells that bracket each
    extremum; inside them an interior extremum is the root of the envelope's
    derivative (``mp.diff``, ``mp.findroot``), compared with the scanned
    values around it, so an extremum at a window end is found too.
    """
    c_m, c_M, lam = mp.mpf(c_m), mp.mpf(c_M), mp.mpf(lam)
    cs = [c_m + (c_M - c_m) * i / n_scan for i in range(n_scan + 1)]

    def largest(f):
        vals = [f(c) for c in cs]
        k = max(range(n_scan + 1), key=vals.__getitem__)
        a, b = cs[max(k - 1, 0)], cs[min(k + 1, n_scan)]
        best = max(f(a), vals[k], f(b))

        def df(c):
            return mp.diff(f, c)

        for lo, hi in ((a, cs[k]), (cs[k], b)):
            if lo < hi and df(lo) > 0 > df(hi):
                best = max(best, f(mp.findroot(df, (lo, hi), solver="anderson")))
        return best

    lower = largest(lambda c: c_m * nu(c, lam) - s_r(c, lam))
    upper = -largest(lambda c: -(c_M * nu(c, lam) - s_r(c, lam)))
    return lower, upper


def coexistence():
    """(c_gas, c_liq, mu_0, p_0) of the planar gas-liquid equilibrium at T:
    the two densities of one chemical potential and one pressure, found by
    ``mp.findroot`` from the preset's pair."""
    c_gas, c_liq = mp.findroot(lambda a, b: (mu_b(a) - mu_b(b), pressure(a) - pressure(b)),
                               (C_GAS, C_LIQ))
    return c_gas, c_liq, mu_b(c_gas), pressure(c_gas)


def surface_tension():
    """sigma = int sqrt(2 kappa (f_b - mu_0 c + p_0)) dc from c_gas to c_liq,
    the planar interface's tension in gradient theory (``mp.quad``)."""
    c_gas, c_liq, mu_0, p_0 = coexistence()
    kappa = kappa_value()
    return mp.quad(lambda c: mp.sqrt(2 * kappa * (f_total(c) - mu_0 * c + p_0)), [c_gas, c_liq])


# Reference values produced by this module (floats hold them exactly).
FROZEN = {
    "m": 0.6708606380799998,
    "alpha": 1.7536594586976607,
    "beta": 7.2380810396730354e-05,
    "kappa": 2.0607973750616247e-19,
    "beta_c_gas": 0.018030950153793411,
    "beta_c_liq": 0.68956060238625572,
    "epsilon_0": 0.75851666262488129,          # beta * 1.1 * c_liq
    "m_gap_at_049": 0.004249867934,            # two fit branches at omega = 0.49
    "f_ideal_liq": 239486581.76306607,
    "f_repulsion_liq": 30577102.641256485,
    "f_attraction_liq": -107431688.85169151,
    "f_total_liq": 162631995.55263105,
    "f_total_gas": 3677043.8828104847,
    "mu_b_gas": 17132.956434347513,
    "mu_b_liq": 17132.957184671147,
    "pressure_gas": 590986.30034962322,
    "pressure_liq": 590994.24486153635,
    "mu_attraction_liq": -20053.053096834353,
    "mu_attraction_gas": -850.99536949744079,
    "minimal_lambda_eps0": 27.365631502878869,  # at the computed epsilon_0
    "minimal_lambda_07585": 27.361397700104600,  # at the literal 0.7585
    "minimal_lambda_05": 4.6024197820950757,
    "nu_c_m": 96.114171520053829,
    "nu_c_M": 2.5796994150443771,
    # envelope_extrema on the working window [0.9*C_GAS, 1.1*C_LIQ] (the
    # floats 224.20107000000002 and 10479.527080000002) with its minimal
    # shift lam = 27.365631502878895; the lower one sits at c_m, the upper
    # one inside the window near c = 10358
    "mu_lower_window": 16916.842168273462,
    "mu_upper_window": 19034.011078877018,
    # coexistence() and surface_tension() at T
    "coexistence_c_gas": 249.1122893959725,
    "coexistence_c_liq": 9526.84218208894,
    "coexistence_mu": 17132.95634851867,
    "coexistence_p": 590986.2789686036,
    "surface_tension": 0.008614390611213479,
}
