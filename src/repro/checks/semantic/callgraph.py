"""Project call graph over function summaries.

Nodes are :data:`~repro.checks.semantic.project.FunctionKey` pairs;
edges come from each summary's recorded call references, resolved
cross-module through the :class:`ProjectContext` symbol table.  The
graph provides what the interprocedural rules need:

* a bottom-up order over strongly connected components (Tarjan), so
  per-function facts can be propagated callee-before-caller with
  mutual recursion collapsing into one component;
* reachability and shortest witness paths from an entry point, for
  "``run()`` reaches this wall-clock read via ..." diagnostics.
"""

from __future__ import annotations

from repro.checks.semantic.project import FunctionKey, ProjectContext

__all__ = ["CallGraph"]


class CallGraph:
    """Directed call graph with SCC condensation and witness paths."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.edges: dict[FunctionKey, tuple[FunctionKey, ...]] = {}
        for module_name in sorted(project.summaries):
            summary = project.summaries[module_name]
            for qualname in sorted(summary.functions):
                fn = summary.functions[qualname]
                key = (module_name, qualname)
                seen: list[FunctionKey] = []
                for ref in fn.calls:
                    callee = project.resolve_call_ref(module_name, ref)
                    if callee is not None and callee not in seen:
                        seen.append(callee)
                self.edges[key] = tuple(seen)

    def callees(self, key: FunctionKey) -> tuple[FunctionKey, ...]:
        """Resolved project-internal callees of one function."""
        return self.edges.get(key, ())

    def sccs_bottom_up(self) -> list[tuple[FunctionKey, ...]]:
        """Strongly connected components, callees before callers.

        Iterative Tarjan; the emission order of Tarjan is already a
        reverse topological order of the condensation, which is exactly
        the bottom-up summary-propagation order.
        """
        index: dict[FunctionKey, int] = {}
        lowlink: dict[FunctionKey, int] = {}
        on_stack: set[FunctionKey] = set()
        stack: list[FunctionKey] = []
        counter = 0
        components: list[tuple[FunctionKey, ...]] = []

        for root in sorted(self.edges):
            if root in index:
                continue
            # Explicit work stack: (node, iterator position).
            work: list[tuple[FunctionKey, int]] = [(root, 0)]
            while work:
                node, child_index = work[-1]
                if child_index == 0:
                    index[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                children = self.edges.get(node, ())
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if child not in self.edges:
                        continue  # summary-less (shouldn't happen)
                    if child not in index:
                        work[-1] = (node, child_index)
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work.pop()
                if lowlink[node] == index[node]:
                    component: list[FunctionKey] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(tuple(sorted(component)))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return components

    def witness_path(
        self, entry: FunctionKey, target: FunctionKey
    ) -> list[FunctionKey] | None:
        """Shortest call path entry -> target (BFS), or ``None``."""
        if entry == target:
            return [entry]
        previous: dict[FunctionKey, FunctionKey] = {}
        frontier = [entry]
        seen = {entry}
        while frontier:
            next_frontier: list[FunctionKey] = []
            for node in frontier:
                for callee in self.edges.get(node, ()):
                    if callee in seen:
                        continue
                    seen.add(callee)
                    previous[callee] = node
                    if callee == target:
                        path = [callee]
                        while path[-1] != entry:
                            path.append(previous[path[-1]])
                        return list(reversed(path))
                    next_frontier.append(callee)
            frontier = next_frontier
        return None
