"""Exception types raised by the tvdeblur package."""


class TVDeblurError(Exception):
    """Base class for all package-specific errors."""


class KernelTooLarge(TVDeblurError, ValueError):
    """Kernel does not fit inside the image (m > n)."""


class BadSpec(TVDeblurError, ValueError):
    """Malformed kernel specification (even size, nonpositive width, ...)."""


class SingularSystem(TVDeblurError):
    """The frequency-domain normal equations are numerically singular."""


class NonpositiveThreshold(TVDeblurError):
    """Shrinkage threshold must be strictly positive."""


class DegenerateReference(TVDeblurError):
    """SNR reference image is constant, so its signal energy is zero."""


class MissingScores(TVDeblurError):
    """Iterate selection requested a score the trace does not carry."""
