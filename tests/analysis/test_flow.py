"""Tests for :mod:`repro.analysis.flow`'s syntactic helpers."""

import ast

from repro.analysis import flow


def test_statement_yields_does_not_cross_function_boundary():
    source = (
        "def outer():\n"
        "    def inner():\n"
        "        yield 1\n"
        "    return inner\n"
    )
    outer = ast.parse(source).body[0]
    assert not flow.statement_yields(outer)
    assert flow.statement_yields(outer.body[0])
