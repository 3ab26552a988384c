"""Shared test wiring: the end-of-run acceptance summary section, the
dict-series oracle of the period, and a fault scoped to one transfer cell.

Acceptance tests register one human-readable pass/fail line each; the
terminal-summary hook replays them after capture ends so the ledger is
visible in ordinary pytest output.
"""

SUMMARY_LINES = []


def record_summary(line: str) -> None:
    SUMMARY_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not SUMMARY_LINES:
        return
    terminalreporter.section("acceptance summary")
    for line in SUMMARY_LINES:
        terminalreporter.write_line(line)


# -- a fault that only the b_transfer cells read -------------------------------

def force_b1_to_one(monkeypatch) -> None:
    """Make the b_transfer cell at j = 1 read b_1 = 1, and no other cell.

    Only the b_transfer cells call carlitz._tseries_times_ratfunc, once per
    cell for j = 0, 1, ..., so the second call is the one at b_1.
    """
    from carlitzhd import RatFunc, carlitz

    real = carlitz._tseries_times_ratfunc
    calls = []

    def faulty(tser, b):
        calls.append(b)
        if len(calls) == 2:
            b = RatFunc.one(b.field, b.vars)
        return real(tser, b)

    monkeypatch.setattr(carlitz, "_tseries_times_ratfunc", faulty)


# -- the period by plain dict series, independent of the package ------------

def _dict_series_mul(a, b, p, prec):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb < prec:
                out[ea + eb] = (out.get(ea + eb, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def _dict_series_inv(a, p, prec):
    out = {0: 1}  # a[0] == 1
    for k in range(1, prec):
        acc = sum(a.get(i, 0) * out.get(k - i, 0) for i in range(1, k + 1)) % p
        if acc:
            out[k] = -acc % p
    return out


def oracle_pitilde_prefix(q, nterms):
    """Coefficients of u^-q .. u^(nterms-q-1) of the period over prime F_q.

    pitilde = -u^{-q} * prod_{j>=1} (1 - theta^{1-q^j})^{-1} with
    theta^{1-q^j} = (-1)^{1-q^j} u^{(q-1)(q^j-1)}.
    """
    prod, j = {0: 1}, 1
    while (q - 1) * (q ** j - 1) < nterms:
        c = pow(-1, 1 - q ** j, q)
        prod = _dict_series_mul(prod, {0: 1, (q - 1) * (q ** j - 1): -c % q},
                                q, nterms)
        j += 1
    inv = _dict_series_inv(prod, q, nterms)
    return [-inv.get(i, 0) % q for i in range(nterms)]
