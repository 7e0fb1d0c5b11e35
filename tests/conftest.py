"""Prints one PASS/FAIL line per acceptance criterion in the summary."""
import re

CRITERIA = {
    1: "distance growth set coincides with the negative-rate set",
    2: "closed-form slope identity sigma = -gamma exp(-Gamma)",
    3: "closed-form amplitude matches the memory-kernel oracle",
    4: "spin-bath truncated measure counts revivals, divergence flagged",
    5: "Markovian models score zero and are CP-divisible",
    6: "detuning sweep: canonical pair maximizes, interior peak, zero onset",
    7: "CP propagators never increase the trace distance",
    8: "intermediate map loses complete positivity where the rate is negative",
    9: "integrator error shrinks at fourth order under step halving",
    10: "a P-divisible map that is not CP-divisible scores zero",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" not in rep.nodeid or rep.when != "call":
                continue
            match = re.search(r"test_criterion_(\d+)", rep.nodeid)
            if match:
                results[int(match.group(1))] = outcome == "passed"
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERIA):
        if number in results:
            verdict = "PASS" if results[number] else "FAIL"
        else:
            verdict = "NOT RUN"
        terminalreporter.write_line(
            f"criterion {number}: {verdict} - {CRITERIA[number]}"
        )
