"""Source indexing for the static analyzer.

Parses the simulated kernel's modules once and answers the structural
questions the abstract interpreter asks while walking handler bodies:

* which class does ``kernel.<attr>`` name (from ``Kernel.__init__``'s
  ``self.net = NetSubsystem(self)`` wiring),
* which class implements a namespace type (``NS_TYPE`` declarations),
* where is the definition of a given function / method (following
  base classes and ``from x import y`` aliases),
* what container kind does ``self.<attr>`` hold inside a class
  (``KList`` / ``KDict`` / ``KCell`` / traced struct / plain Python),
* the value of module-level integer/string constants (for folding
  comparisons like ``family == AF_UNIX``).

Everything is derived from the AST alone — the index never imports the
kernel, so it can analyze a tree that does not run.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Container constructors that allocate from the traced arena.
_ARENA_KINDS = {"KList": "klist", "KDict": "kdict", "KCell": "kcell",
                "JumpLabel": "kcell"}


@dataclass
class ClassInfo:
    """One parsed class definition."""

    name: str
    module: str
    bases: Tuple[str, ...]
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: self.<attr> -> container kind ("klist" | "kdict" | "kcell" |
    #: "plain") as assigned in __init__.
    attr_kinds: Dict[str, str] = field(default_factory=dict)
    #: self.<attr> -> name of the class constructed into it.
    attr_classes: Dict[str, str] = field(default_factory=dict)
    #: KStruct FIELDS declared on this class.
    fields: Tuple[str, ...] = ()
    #: NamespaceType name for Namespace subclasses ("net", "uts", ...).
    ns_type: Optional[str] = None


@dataclass
class ModuleInfo:
    """One parsed module."""

    name: str
    path: str
    tree: ast.Module
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: imported name -> (source module, original name).
    imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: module-level NAME = <int|str> constants.
    constants: Dict[str, object] = field(default_factory=dict)


def _repo_src_dir() -> str:
    # .../src/repro/analysis/sources.py -> .../src
    return os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _resolve_relative(module: str, node: ast.ImportFrom) -> str:
    """Turn ``from ..memory import KCell`` into an absolute module name."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    # level=1 strips the module's own name, each extra level one package.
    base = parts[:len(parts) - node.level]
    if node.module:
        base.append(node.module)
    return ".".join(base)


class KernelSourceIndex:
    """Parsed view of ``repro.kernel`` (and friends) for the analyzer."""

    def __init__(self, src_dir: Optional[str] = None):
        self.src_dir = src_dir or _repo_src_dir()
        self.modules: Dict[str, ModuleInfo] = {}
        #: class name -> ClassInfo (kernel-wide; names are unique here).
        self.classes: Dict[str, ClassInfo] = {}
        #: kernel.<attr> -> class name, from Kernel.__init__.
        self.subsystems: Dict[str, str] = {}
        #: NamespaceType name -> ClassInfo of its implementation.
        self.namespace_classes: Dict[str, ClassInfo] = {}
        self._load()

    # -- loading ----------------------------------------------------------

    def _load(self) -> None:
        kernel_dir = os.path.join(self.src_dir, "repro", "kernel")
        for root, __, files in os.walk(kernel_dir):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                rel = os.path.relpath(path, self.src_dir)
                module = rel[:-3].replace(os.sep, ".")
                if module.endswith(".__init__"):
                    module = module[:-len(".__init__")]
                self._parse(module, path)
        self._wire_kernel()

    def _parse(self, module: str, path: str) -> None:
        with open(path) as handle:
            tree = ast.parse(handle.read(), filename=path)
        info = ModuleInfo(module, path, tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                info.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = self._parse_class(node, module)
            elif isinstance(node, ast.ImportFrom):
                source = _resolve_relative(module, node)
                for alias in node.names:
                    info.imports[alias.asname or alias.name] = (
                        source, alias.name)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and \
                        isinstance(node.value, ast.Constant):
                    info.constants[target.id] = node.value.value
        self.modules[module] = info
        for cls in info.classes.values():
            self.classes[cls.name] = cls
            if cls.ns_type is not None:
                self.namespace_classes[cls.ns_type] = cls

    def _parse_class(self, node: ast.ClassDef, module: str) -> ClassInfo:
        bases = tuple(
            b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
            for b in node.bases
        )
        info = ClassInfo(node.name, module, bases)
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                info.methods[item.name] = item
            elif isinstance(item, ast.Assign) and len(item.targets) == 1:
                target = item.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "FIELDS" and isinstance(item.value, ast.Dict):
                    info.fields = tuple(
                        k.value for k in item.value.keys
                        if isinstance(k, ast.Constant)
                    )
                if target.id == "NS_TYPE" and \
                        isinstance(item.value, ast.Attribute):
                    info.ns_type = item.value.attr.lower()
        init = info.methods.get("__init__")
        if init is not None:
            self._parse_init(init, info)
        return info

    def _parse_init(self, init: ast.FunctionDef, info: ClassInfo) -> None:
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and \
                    isinstance(value.func, ast.Name):
                ctor = value.func.id
                info.attr_kinds[target.attr] = _ARENA_KINDS.get(ctor, "plain")
                info.attr_classes[target.attr] = ctor
            else:
                info.attr_kinds.setdefault(target.attr, "plain")

    def _wire_kernel(self) -> None:
        kernel_cls = self.classes.get("Kernel")
        if kernel_cls is None:  # pragma: no cover - defensive
            return
        for attr, ctor in kernel_cls.attr_classes.items():
            if ctor in self.classes:
                self.subsystems[attr] = ctor

    # -- lookups ----------------------------------------------------------

    def method_def(self, class_name: str, method: str
                   ) -> Optional[Tuple[ClassInfo, ast.FunctionDef]]:
        """Find *method* on *class_name*, chasing base classes by name."""
        seen = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self.classes.get(name)
            if cls is None:
                continue
            if method in cls.methods:
                return cls, cls.methods[method]
            queue.extend(cls.bases)
        return None

    def attr_kind(self, class_name: str, attr: str) -> Optional[str]:
        """Container kind of ``self.<attr>``, chasing base classes."""
        seen = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self.classes.get(name)
            if cls is None:
                continue
            if attr in cls.attr_kinds:
                return cls.attr_kinds[attr]
            if attr in cls.fields:
                return "field"
            queue.extend(cls.bases)
        return None

    def function_def(self, module: str, name: str
                     ) -> Optional[Tuple[ModuleInfo, ast.FunctionDef]]:
        """Resolve a module-level function, following import aliases."""
        seen = set()
        current, target = module, name
        while (current, target) not in seen:
            seen.add((current, target))
            info = self.modules.get(current)
            if info is None:
                return None
            if target in info.functions:
                return info, info.functions[target]
            if target in info.imports:
                current, target = info.imports[target]
                continue
            return None
        return None

    def resolve_constant(self, module: str, name: str) -> Optional[object]:
        """Module-level constant value, following import aliases."""
        seen = set()
        current, target = module, name
        while (current, target) not in seen:
            seen.add((current, target))
            info = self.modules.get(current)
            if info is None:
                return None
            if target in info.constants:
                return info.constants[target]
            if target in info.imports:
                current, target = info.imports[target]
                continue
            return None
        return None

    def relative_path(self, path: str) -> str:
        try:
            return os.path.relpath(path, os.path.dirname(self.src_dir))
        except ValueError:  # pragma: no cover - windows drives
            return path
