"""Route independence, read off a static call graph of the package.

The graph is built with ``ast`` from the source: one node per module-level
function, class, method and assignment, and an edge wherever a node's code
names another node, called or not, with names resolved through the
module's own definitions and its imports from the package.  Reaching a node
means following edges transitively.
"""

import ast
import collections

import pytest

import gaussgem
from conftest import SRC
from routes import COMPARED, DEPENDENCES, READS, ROUTES, SHARED

BY_NAME = {route.name: route for route in ROUTES}


def _definitions(module: str, tree: ast.Module) -> dict:
    """Node name -> the ast statement holding its code, for one module."""
    nodes = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            nodes[f"{module}.{stmt.name}"] = stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, ast.FunctionDef):
                    nodes[f"{module}.{stmt.name}.{member.name}"] = member
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                if isinstance(target, ast.Name):
                    nodes[f"{module}.{target.id}"] = stmt
    return nodes


def _scope(tree: ast.Module, definitions: dict) -> dict:
    """Local name -> package path ("module" or "module.name") for one module's top level."""
    scope = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                path = f"{stmt.module}.{alias.name}" if stmt.module else alias.name
                scope[alias.asname or alias.name] = path
    for name in definitions:
        if name.count(".") == 1:
            scope[name.split(".")[1]] = name
    return scope


def _resolve(expr: ast.expr, scope: dict, nodes: dict) -> str | None:
    """The longest node that a Name or an Attribute chain on a Name refers to, or None."""
    attrs = []
    while isinstance(expr, ast.Attribute):
        attrs.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name) or expr.id not in scope:
        return None
    path = scope[expr.id]
    found = path if path in nodes else None
    for attr in reversed(attrs):
        path = f"{path}.{attr}"
        if path in nodes:
            found = path
    return found


def call_graph() -> dict:
    """Node -> the set of nodes its code names."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (SRC / "gaussgem").glob("*.py")}
    definitions = {module: _definitions(module, tree) for module, tree in trees.items()}
    nodes = {name: code for defs in definitions.values() for name, code in defs.items()}
    graph = {}
    for module, tree in trees.items():
        scope = _scope(tree, definitions[module])
        for name, code in definitions[module].items():
            parts = name.split(".")
            # Inside a class, self.x and cls.x are the class's own members.
            local = dict(scope, self=".".join(parts[:2]), cls=".".join(parts[:2])) if len(parts) == 3 else scope
            graph[name] = {
                target
                for expr in ast.walk(code)
                if isinstance(expr, (ast.Name, ast.Attribute))
                and (target := _resolve(expr, local, nodes)) not in (None, name)
            }
            if isinstance(code, ast.ClassDef):  # a class runs its methods
                graph[name] |= {other for other in nodes if other.startswith(name + ".")}
    return graph


GRAPH = call_graph()


def path_to(start: str, targets) -> list | None:
    """The shortest call chain from ``start`` to a node of ``targets``, or None."""
    previous, queue = {start: None}, collections.deque([start])
    while queue:
        node = queue.popleft()
        if node in targets and node != start:
            chain = [node]
            while previous[chain[-1]] is not None:
                chain.append(previous[chain[-1]])
            return chain[::-1]
        for callee in sorted(GRAPH.get(node, ())):
            if callee not in previous:
                previous[callee] = node
                queue.append(callee)
    return None


def reaches(route, other) -> list | None:
    """A call chain from an entry point of ``route`` to one of ``other``, or None."""
    for entry in route.entries:
        chain = path_to(entry, set(other.entries))
        if chain:
            return chain
    return None


class TestRouteTable:
    def test_entries_are_package_functions(self):
        entries = [entry for route in ROUTES for entry in route.entries]
        assert len(set(entries)) == len(entries)
        for entry in [*entries, *SHARED]:
            assert entry in GRAPH, entry
            module, name = entry.split(".")
            assert callable(getattr(getattr(gaussgem, module), name)), entry

    def test_reads_and_pairs_name_the_table(self):
        assert len(BY_NAME) == len(ROUTES)
        assert all(route.reads in READS for route in ROUTES)
        for a, b, *_ in [*COMPARED, *DEPENDENCES]:
            assert a in BY_NAME and b in BY_NAME and a != b


@pytest.mark.parametrize("a, b, where", COMPARED, ids=[f"{a} vs {b}" for a, b, _ in COMPARED])
def test_compared_routes_stay_independent(a, b, where):
    for route, other in ((BY_NAME[a], BY_NAME[b]), (BY_NAME[b], BY_NAME[a])):
        chain = reaches(route, other)
        assert chain is None, f"{where}: route {route.name!r} calls route {other.name!r}: {' -> '.join(chain)}"


def test_route_dependences_are_the_known_ones():
    found = {(route.name, other.name) for route in ROUTES for other in ROUTES
             if route is not other and reaches(route, other)}
    assert found == DEPENDENCES


@pytest.mark.parametrize("layer", SHARED)
def test_shared_layers_reach_no_route(layer):
    entries = {entry for route in ROUTES for entry in route.entries}
    chain = path_to(layer, entries)
    assert chain is None, f"shared layer {layer} calls a route: {' -> '.join(chain)}"


def test_graph_sees_known_calls():
    # Calls through an imported name, a module attribute, a class and a decorator.
    assert "measure.gem_from_purity" in GRAPH["lattice.gem_field_pipeline"]
    assert "lattice.gem_field_exact" in GRAPH["cli.cmd_field"]
    assert "core.require_pure" in GRAPH["core.PureState"] | GRAPH["core.PureState.__post_init__"]
    assert "lattice._in_double_range" in GRAPH["lattice.gem_field_exact"]
    assert "graphs.GraphSpec.with_uniform_weight" in GRAPH["graphs.gem_ratio_small_r"]
