"""CFG builder edge-set tests for :mod:`repro.analysis.flow`.

Each test parses one small function and asserts the exact edge set of
its control-flow graph, keyed as ``L<lineno>`` for statements,
``<label>@L<lineno>`` for structural nodes (finally, except-dispatch,
except, with-exit), and bare ``entry``/``exit``/``raise`` for the
synthetic boundary nodes.
"""

import ast

from repro.analysis import flow


def cfg_edges(source):
    func = ast.parse(source).body[0]
    return flow.build_cfg(func, func.name).edge_set()


def test_try_finally_covers_both_continuations():
    edges = cfg_edges(
        "def f(x):\n"            # 1
        "    x.acquire()\n"      # 2
        "    try:\n"             # 3
        "        x.work()\n"     # 4
        "    finally:\n"
        "        x.release()\n"  # 6
    )
    assert edges == {
        ("entry", "next", "L2"),
        ("L2", "next", "L4"),
        # Normal and exceptional completion of the try body both run
        # the finally; the except edge carries the body's pre-state.
        ("L4", "next", "finally@L3"),
        ("L4", "except", "finally@L3"),
        ("finally@L3", "next", "L6"),
        # The finally's effects stay visible on BOTH continuations:
        # its exit feeds exit (normal) and raise (re-raise) with its
        # natural kind, never an abrupt one.
        ("L6", "next", "exit"),
        ("L6", "next", "raise"),
    }


def test_nested_with_unwinds_inner_then_outer():
    edges = cfg_edges(
        "def f(a, b):\n"         # 1
        "    with a:\n"          # 2
        "        with b:\n"      # 3
        "            a.work()\n"  # 4
    )
    assert edges == {
        ("entry", "next", "L2"),
        ("L2", "next", "L3"),
        ("L3", "next", "L4"),
        # The body raises into the inner cleanup, which raises into
        # the outer cleanup, which propagates out: the unwind order is
        # innermost-first.
        ("L4", "next", "with-exit@L3"),
        ("L4", "except", "with-exit@L3"),
        ("with-exit@L3", "next", "with-exit@L2"),
        ("with-exit@L3", "except", "with-exit@L2"),
        ("with-exit@L2", "next", "exit"),
        ("with-exit@L2", "except", "raise"),
    }


def test_generator_yield_has_interrupt_edge():
    edges = cfg_edges(
        "def f(env, r):\n"        # 1
        "    yield r.acquire()\n"  # 2
        "    r.release()\n"        # 3
    )
    # A failed event is thrown in at any suspension point: every yield
    # gets an except edge to the raise exit carrying the statement's
    # PRE-state (the acquire never completed).
    assert edges == {
        ("entry", "next", "L2"),
        ("L2", "except", "raise"),
        ("L2", "next", "L3"),
        ("L3", "next", "exit"),
    }


def test_yield_inside_try_interrupts_into_finally():
    edges = cfg_edges(
        "def f(env, r):\n"             # 1
        "    yield r.acquire()\n"      # 2
        "    try:\n"                   # 3
        "        yield env.work()\n"   # 4
        "    finally:\n"
        "        r.release()\n"        # 6
    )
    # A failure at the inner yield routes through the finally, so the
    # release is on the failed path -- this is exactly what makes the
    # try/finally idiom pass L005.
    assert ("L4", "except", "finally@L3") in edges
    assert ("L6", "next", "raise") in edges
    assert ("L6", "next", "exit") in edges


def test_early_return_inside_except():
    edges = cfg_edges(
        "def f(x):\n"                  # 1
        "    try:\n"                   # 2
        "        x.work()\n"           # 3
        "    except ValueError:\n"     # 4
        "        return None\n"        # 5
        "    x.done()\n"               # 6
    )
    assert edges == {
        ("entry", "next", "L3"),
        # The body's exception reaches the dispatch node, which fans
        # out to each matching handler and to the unmatched re-raise.
        ("L3", "except", "except-dispatch@L2"),
        ("L3", "next", "L6"),
        ("except-dispatch@L2", "except", "except@L4"),
        ("except-dispatch@L2", "except", "raise"),
        ("except@L4", "next", "L5"),
        # The early return leaves directly; it never falls through to
        # the statement after the try.
        ("L5", "next", "exit"),
        ("L6", "next", "exit"),
    }


def test_loop_edges_true_false_and_back():
    edges = cfg_edges(
        "def f(xs):\n"            # 1
        "    for x in xs:\n"      # 2
        "        use(x)\n"        # 3
        "    done()\n"            # 4
    )
    assert edges == {
        ("entry", "next", "L2"),
        ("L2", "true", "L3"),
        ("L2", "false", "L4"),
        ("L3", "loop", "L2"),
        ("L4", "next", "exit"),
    }


def test_break_unwinds_through_finally():
    edges = cfg_edges(
        "def f(xs, r):\n"          # 1
        "    while go():\n"        # 2
        "        try:\n"           # 3
        "            step()\n"     # 4
        "            break\n"      # 5
        "        finally:\n"
        "            r.release()\n"  # 7
        "    done()\n"             # 8
    )
    # break runs the finally before leaving the loop.
    assert ("L5", "next", "finally@L3") in edges
    assert ("L7", "next", "L8") in edges


def test_cleanup_code_is_modelled_non_raising():
    edges = cfg_edges(
        "def f(a, b):\n"               # 1
        "    try:\n"                   # 2
        "        a.acquire()\n"        # 3
        "        try:\n"               # 4
        "            a.work()\n"       # 5
        "        finally:\n"
        "            a.release()\n"    # 7
        "    finally:\n"
        "        b.release()\n"        # 9
    )
    # The inner release sits inside the outer try, but it gets no
    # except edge: cleanup failing is out of scope, and the pre-state
    # edge would claim the release "never ran" on a path every
    # correctly nested try/finally has.
    assert not any(src == "L7" and kind == "except"
                   for src, kind, _dst in edges)
    # Ordinary calls inside the try DO raise into the finally.
    assert ("L5", "except", "finally@L4") in edges


def test_dataflow_union_join_at_merge_points():
    source = (
        "def f(c, r):\n"
        "    if c:\n"
        "        r.acquire()\n"
        "    r.close()\n"
    )
    func = ast.parse(source).body[0]
    cfg = flow.build_cfg(func, "f")

    def transfer(node, state):
        stmt = node.stmt
        if (stmt is not None and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)):
            new = dict(state)
            new[stmt.value.func.attr] = frozenset({node.id})
            return new
        return state

    in_states, out_states = flow.forward(cfg, {}, transfer)
    at_exit = in_states[cfg.exit]
    # `acquire` only happens on the true branch: the union join keeps
    # it as a MAY fact at the merge; `close` happens on every path.
    assert "acquire" in out_states[cfg.exit]
    assert "close" in at_exit or "close" in out_states[cfg.exit]


def test_statement_yields_does_not_cross_function_boundary():
    source = (
        "def outer():\n"
        "    def inner():\n"
        "        yield 1\n"
        "    return inner\n"
    )
    func = ast.parse(source).body[0]
    assert not flow.build_cfg(func, "outer").is_generator
