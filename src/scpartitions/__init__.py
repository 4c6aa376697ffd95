"""Self-conjugate partitions: hook lengths, class correspondences, core
counting, and exact truncated-series identity checks."""

from . import bijection, enumeration, partitions, series, verify
from .partitions import *  # noqa: F401,F403
from .bijection import *  # noqa: F401,F403
from .enumeration import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *partitions.__all__,
    *bijection.__all__,
    *enumeration.__all__,
    *series.__all__,
    *verify.__all__,
    "__version__",
]
