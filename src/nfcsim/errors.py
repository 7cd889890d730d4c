"""Exception hierarchy shared across the simulator."""


class NfcSimError(Exception):
    """Base class for all simulator errors."""


# -- graph construction -------------------------------------------------

class CycleDetected(NfcSimError):
    """The arc set admits no topological order."""


class RoleConflict(NfcSimError):
    """A node's role is inconsistent with its declared use."""


class DanglingReference(NfcSimError):
    """An arc or child set references an undeclared node."""


class TreeViolation(NfcSimError):
    """Tree-mode structural constraint violated."""


class NotATree(NfcSimError):
    """Operation requires a tree-mode graph."""


# -- atomic functions ----------------------------------------------------

class ArityMismatch(NfcSimError):
    """Input count does not match the function's arity."""


class DomainMismatch(NfcSimError):
    """Packet domain (field vs. real) inconsistent with the function."""


class DomainError(NfcSimError):
    """A pre/post-processing function is undefined at an input value."""


class MissingAssignment(NfcSimError):
    """An atomic node has no installed function."""


class InconsistentDimensions(NfcSimError):
    """Packets with mismatched lengths or coding-vector sizes."""


# -- engine / cli --------------------------------------------------------

class MismatchedScenarios(NfcSimError):
    """Cost comparison between scenarios that do not share graph/sources/T."""


class ScenarioError(NfcSimError):
    """A scenario file or Scenario value failed validation."""
