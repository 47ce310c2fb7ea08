"""Independent mpmath references for the J integral and the signal likelihoods.

Each quantity is defined once here, straight from its closed form, and shares
no code with the package, so the tests that compare against it stay checks
rather than copies.
"""

import itertools

import mpmath as mp


def mp_j(k, x, y, dps=60):
    """J_k(x, y), the integral of t^k e^(-t - y/t) over [x, inf), by direct
    quadrature in t split at the integrand's peak."""
    with mp.workdps(dps):
        f = lambda t: t ** mp.mpf(k) * mp.e ** (-t - mp.mpf(y) / t)
        kp1 = mp.mpf(k) + 1
        s = mp.sqrt(kp1 * kp1 + 4 * mp.mpf(y))
        tstar = (kp1 + s) / 2 if kp1 >= 0 else (2 * mp.mpf(y)) / (s - kp1)
        pts = [mp.mpf(x), tstar, mp.inf] if tstar > x else [mp.mpf(x), mp.inf]
        return mp.quad(f, pts)


def mp_one_source_logpdf(values, L, sigma2, dps=50):
    """ln P(Y | one source) assembled directly from the closed form."""
    with mp.workdps(dps):
        xs = [mp.mpf(float(v)) for v in values]
        n = len(xs)
        s2 = mp.mpf(float(sigma2))
        total = mp.mpf(0)
        for l in range(n):
            denom = mp.mpf(1)
            for i in range(n):
                if i != l:
                    denom *= xs[l] - xs[i]
            total += mp.e ** (xs[l] / s2) / denom * mp_j(n - L - 1, s2, xs[l], dps)
        pref = (s2 - sum(xs) / s2 - n * L * mp.log(mp.pi)
                - (n - 1) * (L - 1) * mp.log(s2))
        return float(pref + mp.log(total))


def mp_two_source_logpdf(values, L, sigma2, dps=50):
    """ln P(Y | two sources) assembled directly from the closed form."""
    with mp.workdps(dps):
        xs = [mp.mpf(float(v)) for v in values]
        n = len(xs)
        s2 = mp.mpf(float(sigma2))

        def j(k, y):
            return mp_j(k, 2 * s2, 2 * y, dps)

        total = mp.mpf(0)
        for a1, a2 in itertools.permutations(range(n), 2):
            d1 = mp.mpf(1)
            for jj in range(n):
                if jj != a1:
                    d1 *= xs[a1] - xs[jj]
            d2 = mp.mpf(1)
            for jj in range(n):
                if jj not in (a1, a2):
                    d2 *= xs[a2] - xs[jj]
            inner = (j(n - L, xs[a1]) * j(n - L - 1, xs[a2])
                     - j(n - L - 1, xs[a1]) * j(n - L, xs[a2]))
            total += mp.e ** ((xs[a1] + xs[a2]) / s2) / (d1 * d2) * inner
        pref = ((2 * L - 1) * mp.log(2) + 4 * s2 - sum(xs) / s2
                - mp.log(2) - (n - 2) * (L - 2) * mp.log(s2)
                - n * L * mp.log(mp.pi))
        return float(pref + mp.log(total))
