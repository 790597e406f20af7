"""Gate on a tier-1 JUnit XML report.

Passes only when the run has no errors and its failed tests are exactly
the acceptance criteria that fail on purpose, so a new failure cannot
hide behind them:

    python .github/check_tier1.py tier1.xml
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {
    "test_acceptance.py::test_criterion_2",
    "test_acceptance.py::test_criterion_5",
}


def main(path: str) -> int:
    root = ET.parse(path).getroot()
    failed, errors, total = set(), [], 0
    for case in root.iter("testcase"):
        total += 1
        # classname "tests.test_x" names the module; it is empty for a
        # module that failed to collect
        module = case.get("classname", "").split(".")[-1]
        test_id = "%s.py::%s" % (module, case.get("name")) if module else case.get("name")
        if case.find("error") is not None:
            errors.append(test_id)
        if case.find("failure") is not None:
            failed.add(test_id)
    suite_errors = sum(int(s.get("errors", 0)) for s in root.iter("testsuite"))
    ok = True
    if total == 0:
        print("no test cases in the report")
        ok = False
    if errors or suite_errors:
        print("errors (%d): %s" % (max(len(errors), suite_errors), sorted(errors)))
        ok = False
    for test_id in sorted(failed - EXPECTED_FAILURES):
        print("unexpected failure: " + test_id)
        ok = False
    for test_id in sorted(EXPECTED_FAILURES - failed):
        print("expected failure did not fail: " + test_id)
        ok = False
    print("%s: %d tests, failed: %s" % ("ok" if ok else "FAIL", total, sorted(failed)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
