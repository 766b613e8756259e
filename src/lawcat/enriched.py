"""V-categories are the (T,V)-categories of tvcat over the identity monad.

Only two names live here, because perfbench/tracer.py traces them under
this module: all_vcategories, and check_vbimodule, which is
tvcat.check_tvbimodule.
"""

from __future__ import annotations

from .errors import DEFAULT_MAX_ENUM
from .laxext import LaxExtension
from .monad import builtin_monad
from .tvcat import all_tvcategories
from .tvcat import check_tvbimodule as check_vbimodule  # noqa: F401


def all_vcategories(q, n, max_enum=DEFAULT_MAX_ENUM):
    """Every V-category on n points, over the quantale object q."""
    return all_tvcategories(LaxExtension(builtin_monad("id"), q, max_enum), n, max_enum)
