"""Pre-restore state-image verification, repair, and quarantine."""

from ..mem.leaves import page_digest
from .quarantine import DIAGNOSIS_FILE, HostDirFs, Quarantine
from .verifier import (ADVISORY, FATAL, PASS_REPAIR, PASS_SEMANTIC,
                       PASS_STRUCTURAL, REPAIRABLE, REQUIRED_FILES,
                       Finding, ImageVerifier, VerifyReport,
                       image_page_digests, verify_images)

__all__ = [
    "DIAGNOSIS_FILE", "HostDirFs", "Quarantine",
    "ADVISORY", "FATAL", "REPAIRABLE", "REQUIRED_FILES",
    "PASS_STRUCTURAL", "PASS_SEMANTIC", "PASS_REPAIR",
    "Finding", "ImageVerifier", "VerifyReport",
    "image_page_digests", "page_digest", "verify_images",
]
