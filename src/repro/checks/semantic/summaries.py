"""Per-function summaries: the cacheable unit of the semantic analysis.

One extraction pass over a module's AST produces a
:class:`ModuleSummary` — everything the interprocedural rules need to
know about the module *without re-walking its tree*:

* **purity** — every ambient-state read in each function body (wall
  clock, environment, OS entropy, filesystem outside declared inputs,
  the global NumPy RNG), plus the function's outgoing call references,
  so RPX101 can propagate impurity bottom-up over the call graph;
* **seed taint** — a small *term language* abstracting each function's
  dataflow: what its return value is built from, which expressions
  reach `Generator` sampling calls, and what every module global is
  bound to.  Terms are closed under substitution, so RPX102 evaluates
  them across call boundaries by plugging caller argument terms into
  callee return terms;
* **units** — parameter/return units declared by the ``_s``/``_w``
  suffix conventions or a ``watts_to_kilowatts``-style converter name,
  the seed facts RPX103 propagates through arithmetic.

Summaries are JSON-serialisable and keyed on the module's
*AST-normalised* content hash (comments and reformatting do not
invalidate — the same normalisation the :mod:`repro.parallel` result
cache trusts).  Because a comment edit shifts line numbers without
changing the key, findings never anchor on a stored ``lineno``:
every source position is stored as a *node locator* (the child-index
path from the module root) and resolved against the freshly parsed
tree on every run.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field

from repro.checks.config import LintConfig
from repro.checks.engine import ImportMap

__all__ = [
    "AMBIENT_ATTRIBUTES",
    "AMBIENT_CALLS",
    "AMBIENT_MODULES",
    "FILESYSTEM_CALLS",
    "FILESYSTEM_METHODS",
    "GENERATOR_FACTORIES",
    "GLOBAL_RNG_CALLS",
    "SAMPLING_METHODS",
    "SEMANTIC_VERSION",
    "AmbientOp",
    "FunctionSummary",
    "ModuleSummary",
    "extract_module_summary",
    "node_paths",
    "resolve_node_path",
    "summary_cache_key",
]

#: Bumped whenever summary extraction or the term language changes, so
#: stale cached summaries can never feed the rules.
SEMANTIC_VERSION = "1"

# --- ambient-state vocabulary ---------------------------------------------

#: Callables whose result depends on when/where the process runs
#: (superset of the RPX004 per-file list — the interprocedural rule
#: also cares about process identity and environment reads).
AMBIENT_CALLS: dict[str, str] = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "wall clock",
    "time.monotonic_ns": "wall clock",
    "time.perf_counter": "wall clock",
    "time.perf_counter_ns": "wall clock",
    "time.localtime": "wall clock",
    "time.gmtime": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "OS entropy",
    "uuid.uuid4": "OS entropy",
    "os.getenv": "environment",
    "os.getpid": "process identity",
    "os.getcwd": "process identity",
    "os.getlogin": "process identity",
    "socket.gethostname": "process identity",
    "platform.node": "process identity",
}

#: Attribute *reads* that are ambient even without a call.
AMBIENT_ATTRIBUTES: dict[str, str] = {
    "os.environ": "environment",
    "sys.argv": "process identity",
}

#: Modules that are ambient wholesale (shared hidden state).
AMBIENT_MODULES = ("random", "secrets")

#: Legacy NumPy global-state RNG entry points (RPX001's target, seen
#: here as an ambient effect: the stream depends on every prior draw).
GLOBAL_RNG_CALLS = frozenset(
    f"numpy.random.{name}"
    for name in (
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "choice", "shuffle", "permutation", "normal", "uniform",
        "standard_normal", "RandomState", "get_state", "set_state",
    )
)

#: Filesystem reads by qualified name; flagged unless the path derives
#: from a function parameter (a *declared* input).
FILESYSTEM_CALLS = frozenset(
    {
        "os.listdir", "os.scandir", "os.walk", "os.stat",
        "os.path.exists", "os.path.getsize", "os.path.getmtime",
        "glob.glob", "glob.iglob",
    }
)

#: Method names that read the filesystem when called on a path-like
#: receiver (``Path.read_text`` etc.); same declared-input exemption.
FILESYSTEM_METHODS = frozenset(
    {"read_text", "read_bytes", "iterdir", "glob", "rglob"}
)

#: NumPy generator/seed factories whose determinism hinges on the seed
#: argument.
GENERATOR_FACTORIES = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
    }
)

#: ``numpy.random.Generator`` drawing methods — the sinks RPX102 guards.
SAMPLING_METHODS = frozenset(
    {
        "random", "normal", "standard_normal", "uniform", "integers",
        "choice", "shuffle", "permutation", "permuted", "exponential",
        "poisson", "gamma", "beta", "binomial", "lognormal",
        "multivariate_normal", "chisquare", "standard_cauchy",
        "standard_exponential", "standard_gamma", "spawn",
    }
)

#: Builtins that pass their first argument's value through unchanged
#: for taint purposes.
_PASSTHROUGH_BUILTINS = frozenset({"int", "float", "abs", "round", "bool", "str"})


# --- node locators --------------------------------------------------------


def node_paths(tree: ast.AST) -> dict[int, tuple[int, ...]]:
    """Map ``id(node)`` -> child-index path from the tree root.

    The path is stable under whitespace/comment edits (which leave the
    AST shape unchanged), which is what lets summaries be cached under
    an AST-normalised key and still anchor findings at current lines.
    """
    paths: dict[int, tuple[int, ...]] = {id(tree): ()}
    stack: list[tuple[ast.AST, tuple[int, ...]]] = [(tree, ())]
    while stack:
        node, path = stack.pop()
        for index, child in enumerate(ast.iter_child_nodes(node)):
            child_path = path + (index,)
            paths[id(child)] = child_path
            stack.append((child, child_path))
    return paths


def resolve_node_path(tree: ast.AST, path: tuple[int, ...]) -> ast.AST | None:
    """Inverse of :func:`node_paths`: follow a child-index path."""
    node: ast.AST = tree
    for index in path:
        children = list(ast.iter_child_nodes(node))
        if index >= len(children):
            return None
        node = children[index]
    return node


def summary_cache_key(tree: ast.Module, config: LintConfig) -> str:
    """Content-addressed key for one module's cached summary.

    Keyed on the dump of the already-parsed AST, not the bytes:
    comments, blank lines and reformatting re-use the cached summary;
    any change the parser can see invalidates it.
    """
    payload = ast.dump(tree)
    hasher = hashlib.sha256()
    hasher.update(b"semantic\x00")
    hasher.update(SEMANTIC_VERSION.encode())
    hasher.update(b"\x00")
    hasher.update(config.fingerprint().encode())
    hasher.update(b"\x00")
    hasher.update(payload.encode("utf-8"))
    return hasher.hexdigest()


# --- summary dataclasses --------------------------------------------------


@dataclass(frozen=True)
class AmbientOp:
    """One direct ambient-state read inside a function body."""

    kind: str  # "wall clock", "environment", "filesystem", ...
    qualname: str  # what was read, for the message
    locator: tuple[int, ...]

    def to_dict(self) -> dict:
        """JSON form for the summary cache."""
        return {"kind": self.kind, "qualname": self.qualname,
                "locator": list(self.locator)}

    @classmethod
    def from_dict(cls, data: dict) -> "AmbientOp":
        return cls(kind=data["kind"], qualname=data["qualname"],
                   locator=tuple(data["locator"]))


@dataclass
class FunctionSummary:
    """Everything the interprocedural rules know about one function."""

    qualname: str  # "run" or "Meter.read"
    params: tuple[str, ...] = ()
    #: parameter name -> unit token, for parameters that declare one.
    param_units: dict[str, str] = field(default_factory=dict)
    #: unit the function promises to return ('?' when undeclared).
    return_unit: str = "?"
    #: direct ambient reads in the body.
    ambient: tuple[AmbientOp, ...] = ()
    #: outgoing call references ({"kind": "local"|"fq", "name"/"ref"}).
    calls: tuple[dict, ...] = ()
    #: taint term for the return value (None: nothing returned).
    returns: dict | None = None
    #: Generator sampling sites: {"method", "locator", "recv": term}.
    samples: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        """JSON form for the summary cache."""
        return {
            "qualname": self.qualname,
            "params": list(self.params),
            "param_units": dict(self.param_units),
            "return_unit": self.return_unit,
            "ambient": [op.to_dict() for op in self.ambient],
            "calls": list(self.calls),
            "returns": self.returns,
            "samples": list(self.samples),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        return cls(
            qualname=data["qualname"],
            params=tuple(data["params"]),
            param_units=dict(data["param_units"]),
            return_unit=data["return_unit"],
            ambient=tuple(AmbientOp.from_dict(d) for d in data["ambient"]),
            calls=tuple(
                {str(k): v for k, v in c.items()} for c in data["calls"]
            ),
            returns=data["returns"],
            samples=tuple(
                {
                    "method": s["method"],
                    "locator": tuple(s["locator"]),
                    "recv": s["recv"],
                }
                for s in data["samples"]
            ),
        )


@dataclass
class ModuleSummary:
    """All function summaries of one module plus its global bindings."""

    module: str
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: module-global name -> taint term (for ``_GEN = default_rng()``).
    globals_taint: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON form for the summary cache."""
        return {
            "module": self.module,
            "functions": {
                name: fn.to_dict() for name, fn in self.functions.items()
            },
            "globals_taint": dict(self.globals_taint),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummary":
        return cls(
            module=data["module"],
            functions={
                name: FunctionSummary.from_dict(d)
                for name, d in data["functions"].items()
            },
            globals_taint=dict(data["globals_taint"]),
        )


# --- extraction -----------------------------------------------------------


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _Extractor:
    """Single-pass extraction of one module's :class:`ModuleSummary`."""

    def __init__(self, module: str, tree: ast.Module, imports: ImportMap,
                 config: LintConfig) -> None:
        self.module = module
        self.tree = tree
        self.imports = imports
        self.config = config
        self.paths = node_paths(tree)
        self.summary = ModuleSummary(module=module)

    def run(self) -> ModuleSummary:
        # Module-level bindings first, so function bodies can reference
        # a global generator through {"k": "global"} terms.
        module_env: dict[str, dict] = {}
        self._walk_block(self.tree.body, env=module_env, fn=None)
        self.summary.globals_taint = module_env
        for qualname, node in self._functions(self.tree):
            self.summary.functions[qualname] = self._extract_function(
                qualname, node
            )
        return self.summary

    @staticmethod
    def _functions(tree: ast.Module):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.name, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{node.name}.{item.name}", item

    # -- function extraction ----------------------------------------

    def _extract_function(
        self, qualname: str, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> FunctionSummary:
        args = node.args
        params = tuple(
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )
        fn = FunctionSummary(qualname=qualname, params=params)
        from repro.checks.semantic.lattice import unit_of_name

        for name in params:
            unit = unit_of_name(name)
            if unit != "?":
                fn.param_units[name] = unit
        fn.return_unit = self._declared_return_unit(node.name, params, fn)
        state = _FunctionState(params=set(params))
        self._walk_block(node.body, env=state.env, fn=fn, state=state)
        fn.ambient = tuple(state.ambient)
        fn.calls = tuple(state.calls)
        fn.samples = tuple(state.samples)
        if state.returns:
            fn.returns = _join(state.returns)
        return fn

    def _declared_return_unit(
        self, name: str, params: tuple[str, ...], fn: FunctionSummary
    ) -> str:
        from repro.checks.semantic.lattice import UNIT_WORDS, unit_of_name

        parts = name.split("_to_")
        if len(parts) == 2 and parts[0] in UNIT_WORDS and parts[1] in UNIT_WORDS:
            # A converter name is authoritative for its first parameter
            # too (``watts_to_kilowatts(watts)`` -> watts is 'w').
            if params:
                fn.param_units.setdefault(params[0], UNIT_WORDS[parts[0]])
            return UNIT_WORDS[parts[1]]
        return unit_of_name(name)

    # -- ordered statement walk -------------------------------------

    def _walk_block(self, body, env: dict[str, dict], fn, state=None) -> None:
        for stmt in body:
            self._walk_stmt(stmt, env, fn, state)

    def _walk_stmt(self, stmt, env, fn, state) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs get their own summary or are skipped
        if state is not None:
            # Scan only this statement's own expressions — nested
            # statement bodies are scanned when the walk reaches them,
            # so nothing is double-counted.
            if isinstance(stmt, (ast.If, ast.While)):
                self._scan_effects(stmt.test, env, state)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_effects(stmt.iter, env, state)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_effects(item.context_expr, env, state)
            elif isinstance(stmt, ast.Try):
                pass
            else:
                self._scan_effects(stmt, env, state)
        if isinstance(stmt, ast.Assign):
            value = self._term(stmt.value, env)
            for target in stmt.targets:
                self._bind(target, stmt.value, value, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, stmt.value, self._term(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                old = env.get(stmt.target.id, _UNKNOWN)
                env[stmt.target.id] = _join([old, self._term(stmt.value, env)])
        elif isinstance(stmt, ast.Return):
            if state is not None:
                if stmt.value is None:
                    state.returns.append(_CONST)
                else:
                    state.returns.append(self._term(stmt.value, env))
        elif isinstance(stmt, (ast.If,)):
            self._walk_block(stmt.body, env, fn, state)
            self._walk_block(stmt.orelse, env, fn, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = self._term(stmt.iter, env)
            self._walk_block(stmt.body, env, fn, state)
            self._walk_block(stmt.orelse, env, fn, state)
        elif isinstance(stmt, ast.While):
            self._walk_block(stmt.body, env, fn, state)
            self._walk_block(stmt.orelse, env, fn, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    env[item.optional_vars.id] = self._term(
                        item.context_expr, env
                    )
            self._walk_block(stmt.body, env, fn, state)
        elif isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, env, fn, state)
            for handler in stmt.handlers:
                self._walk_block(handler.body, env, fn, state)
            self._walk_block(stmt.orelse, env, fn, state)
            self._walk_block(stmt.finalbody, env, fn, state)

    def _bind(self, target, value_node, term, env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = term
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements = (
                value_node.elts
                if isinstance(value_node, (ast.Tuple, ast.List))
                and len(value_node.elts) == len(target.elts)
                else None
            )
            for index, sub in enumerate(target.elts):
                if isinstance(sub, ast.Name):
                    if elements is not None:
                        env[sub.id] = self._term(elements[index], env)
                    else:
                        env[sub.id] = term

    # -- effect scanning (purity + sampling sites) --------------------

    def _scan_effects(self, stmt, env, state) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                self._scan_call(node, env, state)
            elif isinstance(node, ast.Attribute):
                qualname = self.imports.qualify(node)
                if qualname in AMBIENT_ATTRIBUTES:
                    state.add_ambient(
                        AMBIENT_ATTRIBUTES[qualname], qualname,
                        self.paths[id(node)],
                    )
                elif (
                    qualname is not None
                    and qualname.split(".", 1)[0] in AMBIENT_MODULES
                ):
                    state.add_ambient(
                        "shared RNG/entropy state", qualname,
                        self.paths[id(node)],
                    )

    def _scan_call(self, node: ast.Call, env, state) -> None:
        func = node.func
        qualname = self.imports.qualify(func)
        if qualname in AMBIENT_CALLS:
            state.add_ambient(
                AMBIENT_CALLS[qualname], qualname, self.paths[id(node)]
            )
        elif qualname in GLOBAL_RNG_CALLS:
            state.add_ambient(
                "global RNG state", qualname, self.paths[id(node)]
            )
        elif qualname in FILESYSTEM_CALLS:
            if not self._path_is_declared_input(node, state):
                state.add_ambient(
                    "filesystem", qualname, self.paths[id(node)]
                )
        elif isinstance(func, ast.Name) and func.id == "open":
            if not self._path_is_declared_input(node, state):
                state.add_ambient(
                    "filesystem", "open", self.paths[id(node)]
                )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in FILESYSTEM_METHODS
            and qualname is None  # a real receiver object, not a module
        ):
            if not self._receiver_is_declared_input(func.value, state):
                state.add_ambient(
                    "filesystem", f"<path>.{func.attr}",
                    self.paths[id(node)],
                )
        # Outgoing call edge for the call graph.
        ref = self._call_ref(func, qualname)
        if ref is not None:
            state.calls.append(ref)
        # Generator sampling site?
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SAMPLING_METHODS
            and qualname is None
        ):
            state.samples.append(
                {
                    "method": func.attr,
                    "locator": self.paths[id(node)],
                    "recv": self._term(func.value, env),
                }
            )

    def _call_ref(self, func, qualname) -> dict | None:
        if qualname is not None:
            return {"kind": "fq", "ref": qualname}
        if isinstance(func, ast.Name):
            return {"kind": "local", "name": func.id}
        return None

    def _path_is_declared_input(self, call: ast.Call, state) -> bool:
        """Whether a filesystem call's path argument derives from a parameter."""
        if not call.args and not call.keywords:
            return False
        candidates = list(call.args[:1]) + [
            kw.value for kw in call.keywords if kw.arg in ("file", "path")
        ]
        return any(_names_in(arg) & state.params for arg in candidates)

    def _receiver_is_declared_input(self, recv: ast.AST, state) -> bool:
        return bool(_names_in(recv) & state.params)

    # -- taint term construction --------------------------------------

    def _term(self, node: ast.AST, env: dict[str, dict], depth: int = 0) -> dict:
        if depth > 12:
            return _UNKNOWN
        if isinstance(node, ast.Constant):
            return _CONST
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return self._name_term(node)
        if isinstance(node, ast.Attribute):
            qualname = self.imports.qualify(node)
            if qualname in AMBIENT_ATTRIBUTES:
                return {"k": "ambient", "why": qualname}
            if qualname is not None:
                return {"k": "global", "ref": qualname}
            return self._term(node.value, env, depth + 1)
        if isinstance(node, ast.Call):
            return self._call_term(node, env, depth)
        if isinstance(node, ast.BinOp):
            return _join(
                [
                    self._term(node.left, env, depth + 1),
                    self._term(node.right, env, depth + 1),
                ]
            )
        if isinstance(node, ast.UnaryOp):
            return self._term(node.operand, env, depth + 1)
        if isinstance(node, ast.BoolOp):
            return _join([self._term(v, env, depth + 1) for v in node.values])
        if isinstance(node, ast.IfExp):
            return _join(
                [
                    self._term(node.body, env, depth + 1),
                    self._term(node.orelse, env, depth + 1),
                ]
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            if not node.elts:
                return _CONST
            return _join([self._term(e, env, depth + 1) for e in node.elts])
        if isinstance(node, ast.Subscript):
            return self._term(node.value, env, depth + 1)
        if isinstance(node, ast.Starred):
            return self._term(node.value, env, depth + 1)
        return _UNKNOWN

    def _name_term(self, node: ast.Name) -> dict:
        # Parameter lookups are rewritten by the caller via `env`; a
        # bare name here is either an import or a module global.
        qualname = self.imports.qualify(node)
        if qualname is not None:
            return {"k": "global", "ref": qualname}
        return {"k": "global", "ref": f"{self.module}.{node.id}"}

    def _call_term(self, node: ast.Call, env, depth: int) -> dict:
        func = node.func
        qualname = self.imports.qualify(func)
        if qualname in GENERATOR_FACTORIES:
            seed = node.args[0] if node.args else None
            if seed is None:
                for kw in node.keywords:
                    if kw.arg in ("seed", "entropy"):
                        seed = kw.value
                        break
            if seed is None or (
                isinstance(seed, ast.Constant) and seed.value is None
            ):
                seed_term: dict = {"k": "ambient", "why": "OS entropy"}
            else:
                seed_term = self._term(seed, env, depth + 1)
            return {"k": "gen", "seed": seed_term}
        if qualname in AMBIENT_CALLS:
            return {"k": "ambient", "why": qualname}
        if qualname in GLOBAL_RNG_CALLS or (
            qualname is not None
            and qualname.split(".", 1)[0] in AMBIENT_MODULES
        ):
            return {"k": "ambient", "why": qualname}
        if isinstance(func, ast.Name) and func.id in _PASSTHROUGH_BUILTINS:
            if node.args:
                return self._term(node.args[0], env, depth + 1)
            return _CONST
        ref = self._call_ref(func, qualname)
        if ref is None:
            # A method call on a taint-tracked value keeps its taint
            # (``seq.spawn(1)[0]`` stays seeded by ``seq``'s seed).
            if isinstance(func, ast.Attribute):
                return self._term(func.value, env, depth + 1)
            return _UNKNOWN
        args = [self._term(a, env, depth + 1) for a in node.args]
        kwargs = {
            kw.arg: self._term(kw.value, env, depth + 1)
            for kw in node.keywords
            if kw.arg is not None
        }
        return {"k": "call", "ref": ref, "args": args, "kwargs": kwargs}


class _FunctionState:
    """Mutable scratch state while extracting one function."""

    def __init__(self, params: set[str]) -> None:
        self.params = params
        self.env: dict[str, dict] = {
            name: {"k": "param", "name": name} for name in params
        }
        self.ambient: list[AmbientOp] = []
        self.calls: list[dict] = []
        self.samples: list[dict] = []
        self.returns: list[dict] = []
        self._seen_ambient: set[tuple] = set()

    def add_ambient(self, kind: str, qualname: str, locator) -> None:
        key = (kind, qualname, locator)
        if key not in self._seen_ambient:
            self._seen_ambient.add(key)
            self.ambient.append(AmbientOp(kind, qualname, tuple(locator)))


_CONST = {"k": "const"}
_UNKNOWN = {"k": "unknown"}


def _join(terms: list[dict]) -> dict:
    terms = [t for t in terms if t is not None]
    if not terms:
        return _UNKNOWN
    if len(terms) == 1:
        return terms[0]
    return {"k": "join", "terms": terms}


def extract_module_summary(
    module: str, tree: ast.Module, imports: ImportMap, config: LintConfig
) -> ModuleSummary:
    """Extract the cacheable semantic summary of one parsed module."""
    return _Extractor(module, tree, imports, config).run()
