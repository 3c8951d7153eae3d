"""Access to the shipped data tree (manifests, designs, codes, recipes)."""

from __future__ import annotations

from pathlib import Path

from .core import Code, Gdc, read_code_text

TYPE_CHECKING = False  # so that importing this module does not load typing
if TYPE_CHECKING:
    from .group_action import Manifest

__all__ = [
    "data_root",
    "load_code",
    "load_manifest",
]

_ROOT = Path(__file__).parent / "data"


def data_root() -> Path:
    return _ROOT


def iter_manifest_paths() -> list[Path]:
    return sorted((_ROOT / "manifests").rglob("*.man"))


def load_manifest(rel: str | Path) -> Manifest:
    # Imported here so that reading codes does not load the manifest layer.
    from .group_action import parse_manifest

    path = Path(rel)
    if not path.is_absolute():
        path = _ROOT / "manifests" / path
    return parse_manifest(path.read_text(), name=str(path.name))


def develop_manifest(rel: str | Path) -> Gdc:
    from .group_action import develop

    return develop(load_manifest(rel))


def load_code(rel: str | Path) -> Code | Gdc:
    path = Path(rel)
    if not path.is_absolute():
        path = _ROOT / "codes" / path
    return read_code_text(path.read_text())
