"""Bundled demonstration scenes.

Five synthetic building databases ship with the package: four Manhattan-style
street grids of varying density ("avenue", "crosstown", "plaza", "tower") and
a minimal single-slab scene ("slab") whose occlusion geometry can be worked
out by hand.  Each scene has a canonical transmitter placed at a street
intersection.
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path

from .geometry import BuildingDB, Point3, TxSite, load_building_db

_TX_SITES = {
    "slab": TxSite("slab-tx", Point3(0.0, 0.0, 7.0)),
    "avenue": TxSite("avenue-tx", Point3(0.0, 0.0, 7.0)),
    "crosstown": TxSite("crosstown-tx", Point3(0.0, 0.0, 7.0)),
    "plaza": TxSite("plaza-tx", Point3(0.0, 0.0, 7.0)),
    "tower": TxSite("tower-tx", Point3(0.0, 0.0, 17.0)),
}


def scene_names() -> "list[str]":
    """Names of all bundled scenes."""
    return sorted(_TX_SITES)


def scene_path(name: str) -> Path:
    """Filesystem path of a bundled scene's building DB document."""
    tx_site(name)  # rejects an unknown name
    return Path(str(files("mmwpl").joinpath(f"data/{name}.json")))


def load_scene(name: str) -> BuildingDB:
    """Load a bundled scene as a BuildingDB."""
    return load_building_db(scene_path(name))


def tx_site(name: str) -> TxSite:
    """The canonical transmitter for a bundled scene."""
    if name not in _TX_SITES:
        raise ValueError(f"unknown demo scene {name!r}; available: {', '.join(scene_names())}")
    return _TX_SITES[name]
