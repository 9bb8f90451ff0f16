"""Interleaving rules: yield-point atomicity for the sim kernel.

GEM007-GEM009 are the static half of GeminiSan. They reason about what
can change *across a suspension point* — every ``yield`` hands control
to the scheduler, and any other process (or a crash) may run before the
generator resumes. All three rules codify bug classes this repo has
actually shipped:

* **GEM007** — a routing fact (fragment assignment, ``config_id``, a
  dirty-list view) captured once and then used inside a loop that
  suspends: by the second iteration the capture can be stale (the PR 1
  stale-config bug), and a dirty-view handle dropped in a ``finally``
  after a failed yield discards keys recovery still needs (the PR 3
  LeaseBackoff bug).
* **GEM008** — lock-order inversion over the module's acquisition-order
  graph (kernel mutexes/semaphores plus the Redlease, reached directly
  or through ``yield from`` into a sibling method).
* **GEM009** — check-then-act on eviction markers: a dirty-list page
  fetched across the network whose ``complete`` flag is never consulted,
  or a dirty list re-created with a fresh marker outside the one op
  allowed to mint one.

These rules read the may-yield and lock summaries of a per-module
:class:`~repro.analysis.flow.FlowProject`; the runtime sanitizer
(:mod:`repro.sim.sanitizer`) checks the same properties path-sensitively
under chaos schedules.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (Finding, ModuleContext, Rule, call_name,
                                 dotted_name, keyword_arg, register_rule)
from repro.analysis.flow import (FlowFunction, FlowProject, op_of_call,
                                 single_module_project)

__all__ = ["StaleCaptureAcrossYield", "LockOrderInversion",
           "CheckThenActOnMarkers"]

#: Calls whose result is a routing decision: stale after any suspension
#: once a reconfiguration can run.
ROUTING_CALL_SUFFIXES = (".route", ".fragment_for_key", ".fragment")

#: Ops that fetch a dirty-list page; their result carries ``complete``.
DIRTY_FETCH_OPS = frozenset({"get_dirty", "get_dirty_page"})

#: Names that look like a dirty-list view (GEM007's finally-drop check).
DIRTY_NAME_HINTS = ("dirty",)


def _in_subtree(node: ast.AST, root: ast.AST) -> bool:
    return any(node is candidate for candidate in ast.walk(root))


def _loops_of(func: ast.AST, ctx: ModuleContext) -> List[ast.AST]:
    return [node for node in ast.walk(func)
            if isinstance(node, (ast.For, ast.While))
            and ctx.enclosing_function(node) is func]


def _is_routing_value(value: ast.expr) -> bool:
    """Is this expression a routing fact worth tracking?

    Either a call to a router (``self.cache.route(key)``) or a read of a
    remote ``config_id`` attribute. ``self._config_id`` (two dotted
    parts) is the owner's own field — the coordinator mutates it under
    its transition lock — so only deeper paths like
    ``self.cache.config_id`` count as captures of someone else's state.
    """
    if isinstance(value, ast.Call):
        name = call_name(value)
        return (name is not None
                and name.endswith(ROUTING_CALL_SUFFIXES))
    if isinstance(value, ast.Attribute):
        name = dotted_name(value)
        return (name is not None and name.endswith(".config_id")
                and name.count(".") >= 2)
    return False


@register_rule
class StaleCaptureAcrossYield(Rule):
    """GEM007: routing state captured once, used across suspensions.

    Two shapes:

    (a) ``x = <routing expr>`` outside a loop, where some loop in the
        same generator both suspends (a ``yield``, or ``yield from``
        into a may-yield method) and reads ``x`` without reassigning it.
        Each suspension is a reconfiguration window; by the next
        iteration ``x`` may route to the wrong instance. The fix that
        shipped for the PR 1 bug moved the capture inside the loop.

    (b) a dirty-view mutation (``dirty.discard(...)`` / ``.pop`` /
        ``.remove``) in a ``finally`` or ``except`` of a ``try`` whose
        body suspends: when the yield fails mid-flight the handler drops
        a key from a view that no longer matches the authoritative list
        (the PR 3 LeaseBackoff drop).
    """

    code = "GEM007"
    summary = "routing state captured before a yielding loop goes stale"

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        project = single_module_project(ctx)
        for owner in project.functions:
            if owner.is_async or not ctx.is_generator(owner.node):
                continue
            findings.extend(self._stale_captures(ctx, project, owner))
            findings.extend(self._finally_drops(ctx, project, owner))
        return findings

    # -- (a) captures ---------------------------------------------------

    def _stale_captures(self, ctx: ModuleContext, project: FlowProject,
                        owner: FlowFunction) -> Iterator[Finding]:
        func = owner.node
        loops = _loops_of(func, ctx)
        if not loops:
            return
        for node in ast.walk(func):
            if (not isinstance(node, ast.Assign)
                    or ctx.enclosing_function(node) is not func
                    or len(node.targets) != 1
                    or not isinstance(node.targets[0], ast.Name)
                    or not _is_routing_value(node.value)):
                continue
            name = node.targets[0].id
            capture_loops = [loop for loop in loops
                             if _in_subtree(node, loop)]
            for loop in loops:
                if loop in capture_loops:
                    continue  # re-captured every iteration: fine
                if not self._suspends_in(ctx, project, owner, [loop]):
                    continue
                if self._reassigned_in(ctx, func, loop, name):
                    continue
                if self._reads_name(ctx, func, loop, name):
                    yield self.finding(
                        ctx, node,
                        f"'{name}' is captured once but read inside a "
                        f"loop that yields; every suspension is a "
                        f"reconfiguration window, so re-capture it "
                        f"inside the loop (GEM007)")
                    break

    @staticmethod
    def _suspends_in(ctx: ModuleContext, project: FlowProject,
                     owner: FlowFunction, body: Sequence[ast.AST]) -> bool:
        """Does any statement of ``body`` suspend ``owner``?"""
        return any(isinstance(node, (ast.Yield, ast.YieldFrom))
                   and ctx.enclosing_function(node) is owner.node
                   and project.suspends(node)
                   for stmt in body for node in ast.walk(stmt))

    @staticmethod
    def _reassigned_in(ctx: ModuleContext, func: ast.AST,
                       loop: ast.AST, name: str) -> bool:
        for node in ast.walk(loop):
            if (isinstance(node, ast.Assign)
                    and ctx.enclosing_function(node) is func
                    and any(isinstance(t, ast.Name) and t.id == name
                            for t in node.targets)):
                return True
            if (isinstance(node, ast.For)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == name):
                return True
        return False

    @staticmethod
    def _reads_name(ctx: ModuleContext, func: ast.AST,
                    loop: ast.AST, name: str) -> bool:
        return any(isinstance(node, ast.Name) and node.id == name
                   and isinstance(node.ctx, ast.Load)
                   and ctx.enclosing_function(node) is func
                   for node in ast.walk(loop))

    # -- (b) finally drops ----------------------------------------------

    def _finally_drops(self, ctx: ModuleContext, project: FlowProject,
                       owner: FlowFunction) -> Iterator[Finding]:
        func = owner.node
        for node in ast.walk(func):
            if (not isinstance(node, ast.Try)
                    or ctx.enclosing_function(node) is not func):
                continue
            if not self._suspends_in(ctx, project, owner, node.body):
                continue
            cleanup: List[ast.stmt] = list(node.finalbody)
            for handler in node.handlers:
                cleanup.extend(handler.body)
            for stmt in cleanup:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    name = call_name(call)
                    if name is None:
                        continue
                    parts = name.split(".")
                    if (len(parts) == 2
                            and parts[1] in ("discard", "pop", "remove")
                            and any(h in parts[0].lower()
                                    for h in DIRTY_NAME_HINTS)):
                        yield self.finding(
                            ctx, call,
                            f"'{name}' drops from a dirty view in "
                            f"cleanup of a try whose body yields; a "
                            f"failed yield lands here with a stale "
                            f"view, discarding keys recovery still "
                            f"needs (GEM007)")


@register_rule
class LockOrderInversion(Rule):
    """GEM008: cyclic lock-acquisition order across the module.

    Builds an acquisition-order graph from each function's lexical lock
    events (kernel ``.acquire()`` yields, Redlease RPC ops, plus the
    locks reached through ``yield from`` into sibling methods while
    something is held) and reports any cycle: two processes entering
    the cycle from different edges deadlock the cooperative kernel —
    nothing preempts a parked generator.
    """

    code = "GEM008"
    summary = "lock-order inversion (acquisition-order cycle)"

    def check(self, ctx: ModuleContext) -> List[Finding]:
        edges: Dict[str, Set[str]] = {}
        anchor: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for func in single_module_project(ctx).functions:
            if func.is_async:
                continue
            held: List[str] = []
            for site in func.lock_events():
                at = site.position
                if site.lock is not None:
                    kind, lock = site.lock
                    if kind == "acquire":
                        for prior in held:
                            anchor.setdefault((prior, lock), at)
                            edges.setdefault(prior, set()).add(lock)
                        held.append(lock)
                    elif lock in held:
                        held.remove(lock)
                elif held:
                    for target in site.targets:
                        for inner in target.acquires:
                            for prior in held:
                                if prior != inner:
                                    anchor.setdefault((prior, inner), at)
                                    edges.setdefault(prior, set()).add(inner)
        return self._report_cycles(ctx, edges, anchor)

    def _report_cycles(self, ctx: ModuleContext,
                       edges: Dict[str, Set[str]],
                       anchor: Dict[Tuple[str, str], Tuple[int, int]],
                       ) -> List[Finding]:
        findings: List[Finding] = []
        reported: Set[frozenset] = set()
        for src, dsts in sorted(edges.items()):
            for dst in sorted(dsts):
                path = self._path(edges, dst, src)
                if path is None:
                    continue
                cycle = frozenset(path) | {src}
                if cycle in reported:
                    continue
                reported.add(cycle)
                line, col = anchor[(src, dst)]
                order = " -> ".join([src, dst] + path[1:] + [src])
                findings.append(Finding(
                    code=self.code,
                    message=(f"lock-order inversion: {order}; another "
                             f"process acquiring in the opposite order "
                             f"deadlocks the kernel (GEM008)"),
                    path=ctx.path, line=line, col=col))
        return findings

    @staticmethod
    def _path(edges: Dict[str, Set[str]], start: str,
              goal: str) -> Optional[List[str]]:
        """DFS path start -> goal, or None."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for nxt in sorted(edges.get(node, ())):
                stack.append((nxt, path + [nxt]))
        return None


@register_rule
class CheckThenActOnMarkers(Rule):
    """GEM009: non-atomic check-then-act on eviction markers.

    (a) a dirty-list page fetched over the network
        (``x = yield ...get_dirty[_page]...``) whose ``complete`` flag
        is never read in the same function: an evicted entry silently
        truncates the list, and acting on the truncated page without
        checking the marker repairs only part of the fragment (the
        shipped recovery-read bug dropped exactly this check).

    (b) ``DirtyList(..., marker=True)`` minted outside
        ``op_create_dirty``: only the coordinator-driven create path may
        declare a list complete; re-creating one mid-outage with a fresh
        marker forges completeness the protocol never established.
    """

    code = "GEM009"
    summary = "check-then-act on eviction markers"

    def check(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for func in [node for node in ast.walk(ctx.tree)
                     if isinstance(node, ast.FunctionDef)]:
            findings.extend(self._unchecked_pages(ctx, func))
        findings.extend(self._fresh_markers(ctx))
        return findings

    def _unchecked_pages(self, ctx: ModuleContext,
                         func: ast.FunctionDef) -> Iterator[Finding]:
        if not ctx.is_generator(func):
            return
        for node in ast.walk(func):
            if (not isinstance(node, ast.Assign)
                    or ctx.enclosing_function(node) is not func
                    or len(node.targets) != 1
                    or not isinstance(node.targets[0], ast.Name)
                    or not isinstance(node.value, ast.Yield)
                    or node.value.value is None):
                continue
            op = self._carried_op(node.value.value)
            if op not in DIRTY_FETCH_OPS:
                continue
            name = node.targets[0].id
            if not self._reads_complete(ctx, func, name):
                yield self.finding(
                    ctx, node,
                    f"'{name}' holds a {op} page but '.complete' is "
                    f"never checked; an eviction truncates the list "
                    f"and partial repair passes silently (GEM009)")

    @staticmethod
    def _carried_op(value: ast.expr) -> Optional[str]:
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                op = op_of_call(node)
                if op is not None:
                    return op
        return None

    @staticmethod
    def _reads_complete(ctx: ModuleContext, func: ast.FunctionDef,
                        name: str) -> bool:
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "complete"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == name
                    and ctx.enclosing_function(node) is func):
                return True
        return False

    def _fresh_markers(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None or name.split(".")[-1] != "DirtyList":
                continue
            marker = keyword_arg(node, "marker")
            if not (isinstance(marker, ast.Constant)
                    and marker.value is True):
                continue
            enclosing = ctx.enclosing_function(node)
            if (enclosing is not None
                    and enclosing.name == "op_create_dirty"):
                continue
            yield self.finding(
                ctx, marker,
                "DirtyList(marker=True) outside op_create_dirty forges "
                "a completeness marker the coordinator never granted "
                "(GEM009)")
