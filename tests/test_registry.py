"""The operator registry in ``__ray_entry__``: one name per operator, no
orphaned op module, one table reader, a valid keep tag on every query,
no package-level name that nothing reaches, the counts the README and
COVERAGE.md quote match the registry, and tests and tools import the
checkout they live in."""

import ast
import glob
import os
import re

import pytest

import __ray_entry__ as entry

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "europarl_crawler_ray")


def _read(name: str) -> str:
    with open(os.path.join(REPO, name)) as f:
        return f.read()


def test_merge_raises_on_duplicate_name():
    with pytest.raises(RuntimeError, match="collision: 'x'.*a_ops.*b_ops"):
        entry._merge([("a_ops", "x", 1), ("b_ops", "y", 2), ("b_ops", "x", 3)])


def test_every_op_module_is_registered():
    """Each ``_TABLES`` row names an existing module, and each
    ``pipelines/*_ops.py`` module defines at least one registered query
    — a module nothing registers is dead code."""
    pipelines = os.path.join(PACKAGE, "pipelines")
    missing = [m for m, _ in entry._TABLES if not os.path.exists(f"{pipelines}/{m}.py")]
    assert missing == []
    defining = {fn.__module__.rsplit(".", 1)[-1] for fn in entry.queries().values()}
    op_modules = {
        os.path.basename(p)[: -len(".py")] for p in glob.glob(f"{pipelines}/*_ops.py")
    }
    assert sorted(op_modules - defining) == []


def test_each_table_registers_only_its_own_functions():
    """A row lives in the table of the module that defines its function,
    so no module re-exports another module's operators."""
    for src, table in entry._tables():
        mod = src.split(".")[0]
        for name, row in table.items():
            assert row[0].__module__.rsplit(".", 1)[-1] == mod, (src, name)


def test_one_table_reader():
    """Op modules read sf tables through ``_util.read_table`` /
    ``table_rows``; no module keeps its own copy."""
    defs: dict[str, list[str]] = {}
    for path in glob.glob(f"{PACKAGE}/**/*.py", recursive=True):
        with open(path) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append(os.path.relpath(path, PACKAGE))
    for copy in ("_read", "_n_docs", "_n_rows"):
        assert defs.get(copy, []) == [], copy
    assert defs["read_table"] == ["_util.py"]
    assert defs["table_rows"] == ["_util.py"]


def test_docs_quote_registry_counts():
    n_queries, n_sql = len(entry.queries()), len(entry.oracle_sql())
    assert (n_queries, n_sql) == (230, 223)
    assert set(entry.oracle_sql()) <= set(entry.queries())
    readme = _read("README.md")
    m = re.search(r"`queries\(\)` \((\d+) operators", readme)
    assert m and int(m.group(1)) == n_queries
    m = re.search(r"parity SQL for the (\d+) SQL-expressible", readme)
    assert m and int(m.group(1)) == n_sql
    m = re.search(
        r"\*\*(\d+) SQL-oracled \+ (\d+) rows-only queries \((\d+) total\)\*\*",
        _read("COVERAGE.md"),
    )
    assert m and tuple(map(int, m.groups())) == (n_sql, n_queries - n_sql, n_queries)


def test_no_hard_coded_checkout_path():
    """Tests and tools find the package relative to their own file
    (``conftest.py``, ``__file__``); a literal checkout path would make a
    run from any other copy import the original checkout's modules."""
    literal = ("/root/" + "repo").encode()
    hits = []
    for sub in ("tests", "tools"):
        for path in sorted(glob.glob(f"{REPO}/{sub}/**/*", recursive=True)):
            if os.path.isfile(path) and "__pycache__" not in path:
                with open(path, "rb") as f:
                    for i, line in enumerate(f, 1):
                        if literal in line:
                            hits.append(f"{os.path.relpath(path, REPO)}:{i}")
    assert hits == []


# ------------------------------------------------------------- keep tags

# short keep tag -> the family name in the first column of VERDICT.md's
# "LLM-data-pipeline operators" table
FAMILIES = {
    "dedup": "Dedup cascade / exact / near",
    "ann": "ANN / vectors",
    "selection": "Data selection / curation",
    "text": "Text analysis / quality",
    "graph": "Graph / link analysis",
    "sketch": "Sketches / eval",
    "training": "Training prep / IO",
    "multimodal": "Multimodal",
    "frontier": "Frontier science (r5)",
}
# queries tagged ``backlog``: the next deletion list. Lower this pin as
# waves delete them; raising it needs a reason in CHANGES.md.
N_BACKLOG = 67


def _family_rows() -> dict[str, str]:
    """Family name -> the rest of its VERDICT.md row (ops, status,
    location), without the family name itself."""
    rows = {}
    for line in _read("VERDICT.md").splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 2 and cells[1] in FAMILIES.values():
            rows[cells[1]] = " ".join(cells[2:])
    assert sorted(rows) == sorted(FAMILIES.values())
    return rows


def _coverage_rows() -> dict[str, str]:
    """COVERAGE.md §2 ID -> its table row."""
    text = _read("COVERAGE.md")
    sec2 = text[text.index("## §2.1") : text.index("## Beyond-reference")]
    return {
        m.group(1): line
        for line in sec2.splitlines()
        if (m := re.match(r"\| ([A-Z][0-9][0-9-]*) \|", line))
    }


def _row_names(row: str, name: str, module: str) -> bool:
    """The row names the query (every ``_`` part of it is a word of the
    row, so "dedup_minhash/simhash" names dedup_simhash) or its module."""
    words = set(re.findall(r"[a-z0-9]+", row.lower()))
    words |= {w[:-1] for w in words if w.endswith("s")}
    if all(part in words for part in name.split("_")):
        return True
    stems = {module, module.removesuffix("_ops")}
    return any(re.search(rf"(?<![\w-]){s}(?![\w-])", row) for s in stems)


def _headline_queries() -> set[str]:
    tree = ast.parse(_read("bench.py"))
    for node in ast.walk(tree):
        target = getattr(node, "targets", [None])[0]
        if getattr(target, "id", "") == "headline_queries":
            return {elt.value for elt in node.value.elts}
    raise AssertionError("bench.py has no headline_queries list")


def _bad_tags() -> list[tuple[str, object]]:
    families, coverage = _family_rows(), _coverage_rows()
    engine = _headline_queries()
    engine_refs = _live(_root_files(), [])
    bad = []
    for src, table in entry._tables():
        module = src.split(".")[0]
        for name, row in table.items():
            keep = row[2] if len(row) == 3 else None
            if keep in FAMILIES:
                ok = _row_names(families[FAMILIES[keep]], name, module)
            elif keep in coverage:
                ok = f"`{name}`" in coverage[keep]
            elif keep == "engine":
                fn = row[0]
                ok = name in engine or (fn.__module__, fn.__name__) in engine_refs
            else:
                ok = keep == "backlog"
            if not ok:
                bad.append((name, keep))
    return bad


def test_every_query_has_a_valid_keep_tag():
    """Each row is ``(fn, sql, keep)``: a COVERAGE.md §2 ID whose row
    names the query, a VERDICT family whose row names it or its module,
    ``engine`` (a bench.py headline query, or a function that an engine
    module, crawlbench or tools/ references), or ``backlog``."""
    assert _bad_tags() == []
    keeps = [row[2] for _src, table in entry._tables() for row in table.values()]
    assert keeps.count("backlog") == N_BACKLOG


# ------------------------------------------------------------ dead code

# engine modules (under europarl_crawler_ray): every reference in them
# counts, as in the files outside the package below
ENGINE_MODULES = [
    "pipelines.crawl", "pipelines.cc_ingest", "pipelines.partitions",
    "pipelines.flagship", "pipelines.postprocess", "pipelines.backfill",
    "cli", "job_entry", "stages.extract", "stages.fetch", "stages.multimodal",
    "state.politeness", "state.seen", "sources.synth",
]
# package-level names no root references that still stay, with the reason
ALLOWED_UNREACHED = {
    "__version__": "package metadata",
    "pipelines.oracle.oracle_crawl":
        "straight-line crawl that tests/test_crawl.py checks the engine against",
    "sources.synth.expected_text_for":
        "expected text per page that the crawl tests compare extraction with",
    "functions.imagecodec.bmp_size":
        "BMP size formula tests/test_multimodal.py checks encoded blobs against",
    "pipelines.cc_ingest.atomic_write_parquet":
        "crawlbench's tracing wraps this name on cc_ingest by attribute",
    **{
        f"functions.dedup.{name}": "scalar reference that tests/test_dedup.py and "
        "test_properties.py compare the batch dedup kernels with"
        for name in (
            "word_shingles", "minhash_signature", "minhash_bands", "est_jaccard",
            "jaccard", "simhash64", "hamming64", "simhash_band_keys",
        )
    },
}


class _Module:
    """Package-level definitions and import aliases of one source file."""

    def __init__(self, path: str):
        rel = os.path.relpath(path, REPO)[: -len(".py")].replace(os.sep, ".")
        self.is_pkg = rel.endswith(".__init__")
        self.name = rel.removesuffix(".__init__")
        with open(path) as f:
            self.tree = ast.parse(f.read())
        self.defs: dict[str, ast.AST] = {}
        self.aliases: dict[str, tuple] = {}  # local name -> (module,) | (module, name)
        self.import_time: list[ast.AST] = []  # top-level code that is no definition
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds a.b
                    bound = a.name if a.asname else a.name.split(".")[0]
                    self.aliases[a.asname or bound] = (bound,)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    self.aliases[a.asname or a.name] = (self.source(node), a.name)
        self._collect(self.tree.body)

    def source(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module
        base = self.name.split(".")[: None if self.is_pkg else -1]
        base = base[: len(base) - node.level + 1]
        return ".".join(base + ([node.module] if node.module else []))

    def _collect(self, body: list) -> None:
        for st in body:
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[st.name] = st
            elif isinstance(st, (ast.Assign, ast.AnnAssign)):
                targets = st.targets if isinstance(st, ast.Assign) else [st.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            self.defs[n.id] = st
            elif isinstance(st, (ast.Import, ast.ImportFrom)):
                if getattr(st, "module", None) != "__future__":
                    for a in st.names:
                        self.defs[a.asname or a.name.split(".")[0]] = st
            elif isinstance(st, (ast.If, ast.Try)):
                if isinstance(st, ast.If):
                    self.import_time.append(st.test)
                for block in (st.body, st.orelse, getattr(st, "finalbody", [])):
                    self._collect(block)
                for h in getattr(st, "handlers", []):
                    self._collect(h.body)
            else:
                self.import_time.append(st)


def _package() -> dict[str, _Module]:
    mods = [_Module(p) for p in glob.glob(f"{PACKAGE}/**/*.py", recursive=True)]
    return {m.name: m for m in mods}


def _refs(mod: _Module, node: ast.AST, pkg: dict[str, _Module]) -> list[tuple[str, str]]:
    """The package (module, name) pairs that ``node`` references through
    AST names, attributes of imported modules and imports."""

    def module_of(expr):
        if isinstance(expr, ast.Name):
            alias = mod.aliases.get(expr.id, ())
            dotted = ".".join(alias)
            return dotted if dotted in pkg else None
        if isinstance(expr, ast.Attribute):
            base = module_of(expr.value)
            if base and f"{base}.{expr.attr}" in pkg:
                return f"{base}.{expr.attr}"
        return None

    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store) and n.id in mod.defs:
            out.append((mod.name, n.id))
        elif isinstance(n, ast.Attribute):
            base = module_of(n.value)
            if base and n.attr in pkg[base].defs:
                out.append((base, n.attr))
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            src = mod.source(n)
            out += [(src, a.name) for a in n.names if src in pkg and a.name in pkg[src].defs]
    return [key for key in out if key[0] in pkg]


def _root_files() -> list[str]:
    files = [f"{REPO}/__ray_entry__.py", f"{REPO}/bench.py"]
    files += glob.glob(f"{REPO}/crawlbench/*.py") + glob.glob(f"{REPO}/tools/*.py")
    return files + [f"{PACKAGE}/{m.replace('.', '/')}.py" for m in ENGINE_MODULES]


def _live(root_files: list[str], root_defs: list[tuple[str, str]]) -> set[tuple[str, str]]:
    """Package names reached from every reference in ``root_files`` and
    from ``root_defs``, following the references of each reached name."""
    pkg = _package()
    work = list(root_defs)
    for path in root_files:
        root = _Module(path)
        work += _refs(root, root.tree, pkg)
    for mod in pkg.values():
        for st in mod.import_time:
            work += _refs(mod, st, pkg)
    live: set[tuple[str, str]] = set()
    while work:
        key = work.pop()
        if key in live:
            continue
        live.add(key)
        mod = pkg[key[0]]
        node = mod.defs[key[1]]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            target = mod.aliases.get(key[1], ())
            if len(target) == 2 and target[0] in pkg and target[1] in pkg[target[0]].defs:
                work.append(target)
        else:
            work += _refs(mod, node, pkg)
    return live


def _unreached() -> list[str]:
    pkg_name = os.path.basename(PACKAGE)
    tables = [(f"{pkg_name}.pipelines.{m}", attr) for m, attr in entry._TABLES]
    allowed = [tuple(f"{pkg_name}.{k}".rsplit(".", 1)) for k in ALLOWED_UNREACHED]
    live = _live(_root_files(), tables + allowed)
    return sorted(
        f"{name}.{d}".removeprefix(f"{pkg_name}.")
        for name, mod in _package().items()
        for d in mod.defs
        if (name, d) not in live
    )


def test_every_package_name_is_reached():
    """Each package-level def, class, assignment and import alias is
    referenced from a root: the registered operator tables, the engine
    modules, ``__ray_entry__``, bench.py, crawlbench/ or tools/ — or from
    a name a root reaches. Tests are no root, so code only a test calls
    fails here unless ALLOWED_UNREACHED names it with a reason."""
    assert _unreached() == []
