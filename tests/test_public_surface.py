"""The package's public names, and the README's library example run as
written, so neither can advertise a name the package no longer has."""

import re
from pathlib import Path

import hilbertdepth
from hilbertdepth import dsl

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "BetaTable", "BudgetExceededError", "CoeffTable", "ElaborationError",
    "EmptyFunctionError", "FunctionSpec", "GenerationFailedError",
    "HilbertDepthError", "HilbertFunction", "InvalidArityError",
    "InvalidDegreeError", "InvalidQuotientError", "NegativeValueError",
    "OutOfRangeError", "ParseError", "QDepthResult", "SquarefreeIdeal",
    "SquarefreeQuotient", "TooManyFormsError", "TooManyVariablesError",
    "VerificationReport", "Violation",
    "alpha_vector", "beta", "beta_table", "big_e", "bounds",
    "check_qdepth_match", "coeff_table", "complete_intersection", "elaborate",
    "extend", "free_module", "from_table", "gauss_2f1", "parse_function",
    "parse_ideal", "parse_spec", "polynomial_ring", "qdepth",
    "qdepth_from_alpha", "random_quotient", "reconstruct", "scale", "shift",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(hilbertdepth.__all__) == PUBLIC_NAMES
    assert [n for n in PUBLIC_NAMES if not hasattr(hilbertdepth, n)] == []


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


def grammar_constructors(block):
    return sorted(set(re.findall(r"\b([a-z]+)\(", block)))


def test_grammars_name_exactly_the_constructors():
    text = README.read_text(encoding="utf-8")
    section = text.split("follow a small grammar", 1)[1]
    readme_block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    doc_block = dsl.__doc__.split("Grammar", 1)[1].split("\n\n", 2)[1]
    assert grammar_constructors(readme_block) == sorted(dsl.CONSTRUCTORS)
    assert grammar_constructors(doc_block) == sorted(dsl.CONSTRUCTORS)
