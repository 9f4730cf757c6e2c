"""No public API that only the tests use.

Every public module-level function or class in `src/layermotion` must be
referenced as a name or attribute somewhere in `src/` or `perfbench/`
(its own definition and docstrings do not count).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "layermotion"


def referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def test_every_public_definition_is_used_outside_the_tests():
    used = referenced_names(sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
    unused = [f"{module}.{name}" for module, name in public_definitions() if name not in used]
    assert unused == []


def test_the_scan_sees_definitions():
    defs = set(public_definitions())
    assert ("fields", "load_checkpoint") in defs


# Settable values: the annotated fields of every `*Config` dataclass, the
# defaulted parameters of every public function and method (dunders count:
# `__init__` takes settings too), the defaulted fields of every other public
# dataclass, and the CLI's settings. A change that adds a knob edits these
# pins and says why; one that removes a knob lowers them.
CONFIG_FIELDS = 38
DEFAULTED_PARAMETERS = 22
DATACLASS_DEFAULTS = 15
CLI_SETTINGS = 20


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)


def settable_values():
    fields, params, defaults = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            functions = []
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                functions.append((node.name, node))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                annotated = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                if node.name.endswith("Config"):
                    fields += [f"{path.stem}.{node.name}.{s.target.id}" for s in annotated]
                elif _is_dataclass(node):
                    defaults += [
                        f"{path.stem}.{node.name}.{s.target.id}" for s in annotated if s.value is not None
                    ]
                functions += [
                    (f"{node.name}.{f.name}", f)
                    for f in node.body if isinstance(f, ast.FunctionDef) and _public(f.name)
                ]
            for name, fn in functions:
                a = fn.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                params += [f"{path.stem}.{name}({p.arg}=)" for p in defaulted]
    return fields, params, defaults


def test_settable_value_ratchet():
    from layermotion import cli

    fields, params, defaults = settable_values()
    assert "scenegen.SceneConfig.recall" in fields
    assert "renderer.render_frame(workers=)" in params
    assert "fields.FrustumSpec.margin" in defaults
    assert (len(fields), len(params)) == (CONFIG_FIELDS, DEFAULTED_PARAMETERS), (fields, params)
    assert len(defaults) == DATACLASS_DEFAULTS, defaults
    assert len(cli._SETTINGS) == CLI_SETTINGS, sorted(cli._SETTINGS)


def test_cli_flags_and_config_keys_are_one_set(tmp_path):
    from layermotion import cli

    explicit = {"help", "config", "workspace", "pred_dir"}
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.choices]
    for name, subparser in sub.choices.items():
        flags = {a.dest: a for a in subparser._actions if a.dest not in explicit}
        for dest, action in flags.items():
            assert action.option_strings == ["--" + dest.replace("_", "-")], name
        assert set(flags) == set(cli._SETTINGS), name
    # Every flag is also accepted as a config-file key, with the flag's parser.
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {'1' if a.type in (int, float) else 'x'}\n" for k, a in flags.items()))
    parsed = cli.read_config_file(cfg)
    assert set(parsed) == set(flags)
    assert all(type(parsed[k]) is flags[k].type for k in flags)


# The only places a file is opened for writing: the atomic writer and the
# manifest append. Every other write goes through `imgio.write_bytes`.
WRITERS = {("imgio", "write_bytes"), ("cli", "Workspace.record")}


# The only place a file's contents are read: every other read goes through
# `imgio.read_bytes`.
READERS = {("imgio", "read_bytes")}


def _name(func) -> str | None:
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _on_imgio(func) -> bool:
    return isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "imgio"


def _open_modes(call: ast.Call) -> list:
    """The mode arguments of builtins.open(path, mode) or Path.open(mode)."""
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    return modes + (call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1])


def _mode_may_hold(mode, chars: str) -> bool:
    """A literal mode holds one of `chars`; one that is not a literal may hold any."""
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set(chars))


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = _name(func)
    if name in ("write_text", "tofile"):
        return True
    if name == "write_bytes":
        # `imgio.write_bytes(...)` is the writer itself; `Path.write_bytes` is not.
        return isinstance(func, ast.Attribute) and not _on_imgio(func)
    if name != "open":
        return False
    return any(_mode_may_hold(m, "wax+") for m in _open_modes(call))


def _reads_a_file(call: ast.Call) -> bool:
    func = call.func
    name = _name(func)
    if name in ("read_bytes", "read_text"):
        # `imgio.read_bytes(...)` and a bare `read_bytes(...)` are the reader itself.
        return isinstance(func, ast.Attribute) and not _on_imgio(func)
    if name in ("fromfile", "load"):
        return isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
    if name != "open":
        return False
    modes = _open_modes(call)  # no mode is "r"
    return not modes or any(_mode_may_hold(m, "r+") for m in modes)


def _calls_by_function(tree):
    """(qualified name of the enclosing function or '', call node) for every call."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                yield scope, child
            yield from walk(child, inner)

    yield from walk(tree, "")


def test_one_writer_for_every_file():
    writes, csv_writers = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope, call in _calls_by_function(tree):
            if _opens_for_writing(call) and (path.stem, scope) not in WRITERS:
                writes.append(f"{path.stem}:{call.lineno} in {scope or '<module>'}")
        csv_writers += sum(
            isinstance(n, ast.Attribute) and n.attr == "writer"
            and isinstance(n.value, ast.Name) and n.value.id == "csv"
            for n in ast.walk(tree)
        )
    assert writes == []
    assert csv_writers == 1


def test_the_writer_scan_sees_writes():
    def flagged(src):
        return [_opens_for_writing(c) for _, c in _calls_by_function(ast.parse(src))]

    assert flagged("open(p, 'wb')\nopen(p)\nopen(p, mode='a')\nopen(p, 'rb')") == [True, False, True, False]
    assert flagged("p.write_text(s)\np.write_bytes(b)\nimgio.write_bytes(p, b)\na.tofile(p)") == [
        True, True, False, True,
    ]
    assert flagged("p.open('w')\np.open()\nopen(p, m)") == [True, False, True]
    scopes = [s for s, _ in _calls_by_function(ast.parse("class A:\n    def f(self):\n        g()\nh()"))]
    assert scopes == ["A.f", ""]


def test_one_reader_for_every_file():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, call in _calls_by_function(ast.parse(path.read_text())):
            if _reads_a_file(call) and (path.stem, scope) not in READERS:
                reads.append(f"{path.stem}:{call.lineno} in {scope or '<module>'}")
    assert reads == []


def test_the_reader_scan_sees_reads():
    def flagged(src):
        return [_reads_a_file(c) for _, c in _calls_by_function(ast.parse(src))]

    assert flagged("open(p)\nopen(p, 'rb')\nopen(p, mode='r+b')\nopen(p, 'ab')\nopen(p, m)") == [
        True, True, True, False, True,
    ]
    assert flagged("p.read_bytes()\np.read_text()\nimgio.read_bytes(p)\nread_bytes(p)") == [
        True, True, False, False,
    ]
    assert flagged("np.fromfile(p)\nnp.load(p)\njson.load(fh)\np.open()\np.open('wb')") == [
        True, True, False, True, False,
    ]
