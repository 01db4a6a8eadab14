"""Finite groupoid algebra: composition tables, presentations and their
pushouts, fundamental groupoids of 2-complexes, crossed modules, and the
square calculus of double groupoids, plus a line-oriented document format
and CLI for driving the checks from files.

Each module's ``__all__`` is its public surface; the package re-exports
them, module by module."""

from . import core, dblgpd, documents, presentations, vankampen, xmod
from .core import *
from .dblgpd import *
from .documents import *
from .presentations import *
from .vankampen import *
from .xmod import *

__all__ = []
__all__ += core.__all__
__all__ += dblgpd.__all__
__all__ += documents.__all__
__all__ += presentations.__all__
__all__ += vankampen.__all__
__all__ += xmod.__all__
