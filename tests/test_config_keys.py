"""Every config key is read somewhere in `src/fscil` outside (de)serialization."""

import ast
from dataclasses import fields
from pathlib import Path

from fscil.config import BackboneConfig, DatasetConfig, RunConfig, SplitConfig, TrainingConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "fscil"
CONFIGS = (BackboneConfig, TrainingConfig, DatasetConfig, SplitConfig, RunConfig)
SERIALIZERS = {"to_dict", "from_dict", "__post_init__"}


def attributes_read(source: str) -> set:
    """Names read as `obj.name` anywhere but inside the serializer methods."""
    tree = ast.parse(source)
    skipped = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in SERIALIZERS for n in ast.walk(f)}
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in skipped}


def test_every_config_key_is_read():
    read = set().union(*(attributes_read(path.read_text()) for path in SRC.glob("*.py")))
    unread = [f"{cls.__name__}.{f.name}" for cls in CONFIGS for f in fields(cls) if f.name not in read]
    assert not unread, unread


def test_reads_in_serializers_do_not_count():
    source = "class C:\n    def to_dict(self):\n        return self.a\n\n    def run(self, c):\n        c.b = c.d\n"
    assert attributes_read(source) == {"d"}
