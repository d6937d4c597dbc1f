"""Deterministic verification reports with replayable case descriptors.

A ``Violation`` names one failing case by a descriptor that replays it, and
a ``VerificationReport`` collects one battery's case count and violations.
Both are immutable ``NamedTuple`` records: ``verify.run_battery`` builds
each report once, and nothing updates it afterwards.

Every violation is built here, by one of two builders.  ``equality_law``
checks the (case, expected, actual) triples of a law between two sides.
``reporter`` serves the one-sided laws: its ``fail(law, expected,
actual)`` appends a violation whose descriptor is a case prefix and the
law, the prefix built only when a law fails.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence


class Violation(NamedTuple):
    case: str
    expected: str
    actual: str

    def __str__(self) -> str:
        return f"{self.case}: expected {self.expected}, got {self.actual}"


def equality_law(
    cases: Iterable[tuple[str, object, object]],
) -> tuple[int, list[Violation]]:
    """The count of (case, expected, actual) triples in the stream, and one
    violation, with both sides as ``str``, per triple whose sides differ."""
    count = 0
    violations = []
    for count, (case, expected, actual) in enumerate(cases, 1):
        if expected != actual:
            violations.append(Violation(case, str(expected), str(actual)))
    return count, violations


def reporter(violations: list[Violation], prefix: Callable[[], str]):
    """``fail(law, expected, actual)``, which appends the violation
    ``{prefix()} {law}`` with both sides as ``str``; ``prefix`` is called
    only when a law fails, so a clean case builds no descriptor."""

    def fail(law: str, expected: object, actual: object) -> None:
        violations.append(Violation(f"{prefix()} {law}", str(expected), str(actual)))

    return fail


class VerificationReport(NamedTuple):
    battery: str
    cases_run: int
    violations: Sequence[Violation] = ()
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.battery:<16} {self.cases_run:>7} cases "
            f"{len(self.violations):>5} violations  {self.elapsed:7.2f}s  {status}"
        )

    # elapsed is omitted on purpose: JSON output must be byte-identical
    # across runs with the same seed and flags.
    def to_json_dict(self) -> dict:
        return {
            "battery": self.battery,
            "casesRun": self.cases_run,
            "violations": [
                {"case": v.case, "expected": v.expected, "actual": v.actual}
                for v in self.violations
            ],
        }
