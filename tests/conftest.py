import json
from importlib.resources import files

import pytest

from hcov.harmonic import GraphAction
from hcov.permgroup import load_default_catalog


def load_figure(name: str) -> dict:
    return json.loads(files("hcov").joinpath(f"data/figures/{name}").read_text())


def fiber_action(fiber, faithful: bool) -> GraphAction:
    """The per-fiber validation that build_cover leaves to the total action:
    a GraphAction on the fiber's own graph and image maps. A Cayley fiber is
    faithful; a collapsed one need not be."""
    return GraphAction(
        fiber.group, fiber.graph, fiber.vertex_images, fiber.edge_images,
        require_faithful=faithful,
    )


@pytest.fixture(scope="session")
def catalog():
    return load_default_catalog()
