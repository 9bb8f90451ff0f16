"""GeminiFlow machinery: call resolution and the per-function fixpoints.

These are unit tests for :mod:`repro.analysis.flow` itself — the rules
built on it are covered in ``test_flow_rules.py``. Fixtures are parsed
in-memory; multi-module cases build one :class:`FlowProject` over
several :class:`ModuleContext` objects, which is exactly how the rules
consume it.
"""

import ast
import textwrap

from repro.analysis.core import ModuleContext
from repro.analysis.flow import (
    FlowProject,
    op_of_call,
    project_for_context,
    single_module_project,
)


def _ctx(source, path="fixture.py"):
    source = textwrap.dedent(source)
    return ModuleContext(path=path, source=source, tree=ast.parse(source))


def _project(*sources):
    return FlowProject([_ctx(src, path=f"mod{i}.py")
                        for i, src in enumerate(sources)])


def _func(project, qualname):
    return next(f for f in project.functions if f.qualname == qualname)


def _raises(project, qualname):
    return _func(project, qualname).raise_set


class TestDirectRaises:
    def test_explicit_raise_escapes(self):
        project = _project("""
            def f():
                raise ValueError("boom")
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_matching_handler_filters(self):
        project = _project("""
            def f():
                try:
                    raise ValueError("boom")
                except ValueError:
                    return None
        """)
        assert _raises(project, "f") == set()

    def test_unrelated_handler_does_not_filter(self):
        project = _project("""
            def f():
                try:
                    raise ValueError("boom")
                except TypeError:
                    return None
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_builtin_base_class_catches_subclass(self):
        # KeyError is caught by LookupError via the builtin MRO.
        project = _project("""
            def f():
                try:
                    raise KeyError("k")
                except LookupError:
                    return None
        """)
        assert _raises(project, "f") == set()

    def test_project_base_class_catches_subclass(self):
        project = _project("""
            class AppError(Exception):
                pass

            class SubError(AppError):
                pass

            def f():
                try:
                    raise SubError("boom")
                except AppError:
                    return None
        """)
        assert _raises(project, "f") == set()

    def test_unknown_class_assumed_exception_subclass(self):
        # ImportedError is not defined here; a broad Exception handler
        # must still count as catching it.
        project = _project("""
            def f():
                try:
                    raise ImportedError("boom")
                except Exception:
                    return None
        """)
        assert _raises(project, "f") == set()

    def test_bare_raise_rethrows_handler_types(self):
        project = _project("""
            def f():
                try:
                    g()
                except ValueError:
                    raise

            def g():
                raise ValueError("boom")
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_raise_of_captured_variable(self):
        project = _project("""
            def f():
                try:
                    g()
                except ValueError as err:
                    raise err

            def g():
                raise ValueError("boom")
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_bare_except_catches_everything(self):
        project = _project("""
            def f():
                try:
                    raise ValueError("boom")
                except:  # noqa: E722
                    return None
        """)
        assert _raises(project, "f") == set()


class TestPropagation:
    def test_callee_raises_flow_to_caller(self):
        project = _project("""
            def f():
                return g()

            def g():
                raise KeyError("k")
        """)
        assert _raises(project, "f") == {"KeyError"}

    def test_caller_side_handler_filters_callee_raises(self):
        project = _project("""
            def f():
                try:
                    return g()
                except KeyError:
                    return None

            def g():
                raise KeyError("k")
        """)
        assert _raises(project, "f") == set()

    def test_transitive_chain_converges(self):
        project = _project("""
            def a():
                return b()

            def b():
                return c()

            def c():
                raise RuntimeError("deep")
        """)
        assert _raises(project, "a") == {"RuntimeError"}

    def test_recursion_terminates(self):
        project = _project("""
            def f(n):
                if n:
                    return f(n - 1)
                raise ValueError("base")
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_unresolvable_callee_is_optimistic(self):
        project = _project("""
            def f():
                return some_imported_thing()
        """)
        assert _raises(project, "f") == set()

    def test_raise_witness_names_the_origin(self):
        project = _project("""
            def f():
                return g()

            def g():
                raise KeyError("k")
        """)
        assert project.raise_witness["KeyError"] == "g"


class TestMethodResolution:
    def test_self_call_resolves_through_inherited_base(self):
        project = _project(
            """
            class Base:
                def helper(self):
                    raise OSError("io")
            """,
            """
            class Child(Base):
                def entry(self):
                    return self.helper()
            """)
        assert _raises(project, "Child.entry") == {"OSError"}

    def test_super_call_resolves_to_base_method(self):
        project = _project("""
            class Base:
                def entry(self):
                    raise OSError("io")

            class Child(Base):
                def entry(self):
                    return super().entry()
        """)
        assert _raises(project, "Child.entry") == {"OSError"}

    def test_override_shadows_base_for_self_calls(self):
        project = _project("""
            class Base:
                def helper(self):
                    raise OSError("io")

            class Child(Base):
                def helper(self):
                    return None

                def entry(self):
                    return self.helper()
        """)
        assert _raises(project, "Child.entry") == set()

    def test_bare_class_call_resolves_to_init(self):
        project = _project("""
            class Widget:
                def __init__(self):
                    raise ValueError("bad widget")

            def f():
                return Widget()
        """)
        assert _raises(project, "f") == {"ValueError"}

    def test_cha_fallback_covers_untyped_attribute_calls(self):
        project = _project("""
            class Store:
                def fetch(self):
                    raise KeyError("k")

            def f(store):
                return store.fetch()
        """)
        assert _raises(project, "f") == {"KeyError"}

    def test_handle_request_gets_implicit_op_edges(self):
        # getattr(self, f"op_{name}") dispatch has no lexical call; the
        # project adds one edge per op_* method.
        project = _project("""
            class Server:
                def handle_request(self, request):
                    handler = getattr(self, "op_" + request.op)
                    return handler(request)

                def op_get(self, request):
                    raise LookupError("miss")
        """)
        assert _raises(project, "Server.handle_request") == {"LookupError"}


class TestAsyncReachability:
    def test_sync_helper_called_from_async_def_is_on_the_loop(self):
        project = _project("""
            async def serve():
                return load()

            def load():
                return 1
        """)
        reached = {f.qualname: entry
                   for f, entry in project.async_reachable().items()}
        assert reached["load"] == "serve"
        assert reached["serve"] == "serve"

    def test_unreached_function_is_off_the_loop(self):
        project = _project("""
            async def serve():
                return 1

            def offline():
                return 2
        """)
        reached = {f.qualname for f in project.async_reachable()}
        assert "offline" not in reached

    def test_enclosing_function_sees_async_defs(self):
        ctx = _ctx("""
            def outer():
                async def f():
                    open("p")
        """)
        call = next(n for n in ast.walk(ctx.tree)
                    if isinstance(n, ast.Call))
        owner = ctx.enclosing_function(call)
        assert isinstance(owner, ast.AsyncFunctionDef)
        assert owner.name == "f"


class TestBlockingPrimitives:
    def _primitives(self, source):
        project = _project(source)
        module = project.modules[0]
        out = []
        for func in project.functions:
            for site in func.call_sites:
                primitive = project.blocking_primitive(module, site)
                if primitive is not None:
                    out.append(primitive)
        return out

    def test_builtin_open_and_aliased_sleep(self):
        primitives = self._primitives("""
            import time as t

            def f():
                with open("p") as handle:
                    t.sleep(1)
        """)
        assert primitives == ["open", "time.sleep"]

    def test_subprocess_prefix_matches_any_member(self):
        primitives = self._primitives("""
            import subprocess

            def f():
                subprocess.run(["ls"])
        """)
        assert primitives == ["subprocess.run"]

    def test_dot_open_on_non_self_receiver(self):
        primitives = self._primitives("""
            def f(path):
                with path.open() as handle:
                    return handle.read()
        """)
        assert primitives == ["path.open"]

    def test_self_open_is_not_the_builtin(self):
        # ``self.open`` is a method of the enclosing class, not the
        # blocking builtin; the suffix heuristic must not fire on it.
        primitives = self._primitives("""
            class Store:
                def open(self):
                    return None

                def f(self):
                    return self.open()
        """)
        assert primitives == []


class TestProjectConstruction:
    def test_single_module_project_is_memoized(self):
        ctx = _ctx("def f():\n    return 1\n")
        assert single_module_project(ctx) is single_module_project(ctx)

    def test_fixture_path_degrades_to_single_module(self):
        # A path outside any source tree must not drag disk modules in.
        ctx = _ctx("def f():\n    return 1\n",
                   path="/nonexistent/fixture.py")
        project = project_for_context(ctx)
        assert [m.ctx for m in project.modules] == [ctx]

    def test_real_tree_anchor_loads_the_default_modules(self):
        from pathlib import Path
        wire = (Path(__file__).resolve().parents[2]
                / "src" / "repro" / "live" / "wire.py")
        ctx = _ctx(wire.read_text(encoding="utf-8"), path=str(wire))
        project = project_for_context(ctx)
        paths = {m.path for m in project.modules}
        assert len(paths) > 10
        assert any(p.endswith("node.py") for p in paths)
        # The anchor's in-memory source wins over its disk copy.
        assert sum(p.endswith("wire.py") for p in paths) == 1


class TestMayYieldFixpoint:
    SOURCE = """
        class W:
            def leaf_yields(self):
                yield 1.0

            def leaf_plain(self):
                return 42

            def via_chain(self):
                yield from self.middle()

            def middle(self):
                yield from self.leaf_yields()

            def via_plain(self):
                yield from self.leaf_plain()

            def external(self):
                yield from some_module.helper()

            def missing(self):
                yield from self.no_such_method()
    """

    def _may_yield(self, qualname):
        return _func(_project(self.SOURCE), qualname).may_yield

    def test_direct_yield(self):
        assert self._may_yield("W.leaf_yields")

    def test_plain_function_does_not_yield(self):
        assert not self._may_yield("W.leaf_plain")

    def test_propagates_through_yield_from_chain(self):
        assert self._may_yield("W.via_chain")
        assert self._may_yield("W.middle")

    def test_yield_from_into_non_yielding_helper(self):
        # Delegating into a generator with no suspension points runs it
        # synchronously: the delegator itself never parks.
        assert not self._may_yield("W.via_plain")

    def test_unresolvable_callee_is_conservative(self):
        assert self._may_yield("W.external")
        assert self._may_yield("W.missing")

    def test_suspends_follows_the_delegate(self):
        project = _project(self.SOURCE)

        def delegation(qualname):
            return next(n for n in ast.walk(_func(project, qualname).node)
                        if isinstance(n, ast.YieldFrom))

        assert project.suspends(delegation("W.via_chain"))
        assert not project.suspends(delegation("W.via_plain"))
        assert project.suspends(delegation("W.external"))


class TestLockSummaries:
    SOURCE = """
        class W:
            def outer(self):
                yield self._lock.acquire()
                yield from self.inner()
                self._lock.release()

            def inner(self):
                yield self._gate.acquire()
                self._gate.release()

            def red(self, cfg):
                lease = yield self.network.call(
                    "i", self._cfg(cfg, op="red_acquire"))
                yield self.network.call("i", self._cfg(cfg, op="red_release"))
    """

    def _summary(self, qualname):
        return _func(_project(self.SOURCE), qualname)

    def test_own_acquires_are_class_qualified(self):
        assert self._summary("W.inner").acquires == {"W._gate"}

    def test_acquires_flow_through_yield_from(self):
        assert self._summary("W.outer").acquires == {"W._lock", "W._gate"}

    def test_red_ops_count_as_the_shared_redlease(self):
        func = self._summary("W.red")
        assert func.acquires == {"redlease"}
        assert [site.lock for site in func.lock_events()] == [
            ("acquire", "redlease"), ("release", "redlease")]

    def test_lock_events_are_source_ordered(self):
        events = [site.lock[0] if site.lock else f"call:{site.self_method}"
                  for site in self._summary("W.outer").lock_events()]
        assert events == ["acquire", "call:inner", "release"]


class TestOpOfCall:
    def op_of(self, expr):
        call = ast.parse(expr, mode="eval").body
        assert isinstance(call, ast.Call)
        return op_of_call(call)

    def test_keyword_form(self):
        assert self.op_of('self._cfg(cfg, op="get_dirty")') == "get_dirty"
        assert self.op_of('CacheOp(op="red_acquire", fragment_id=1)') \
            == "red_acquire"

    def test_positional_session_form(self):
        assert self.op_of('self._op("get_dirty", cfg, key=k)') == "get_dirty"

    def test_positional_only_on_op_builders(self):
        # A stray first-positional string on some other call is not an op.
        assert self.op_of('self.network.call("cache-0", request)') is None

    def test_non_literal_is_none(self):
        assert self.op_of('self._op(op_name, cfg)') is None
