"""Session identity and registry (canonical home: :mod:`repro.lsl.core.session`).

A re-export kept because ``perfbench/lanes.py`` imports
``new_session_id`` from here.
"""

from __future__ import annotations

from repro.lsl.core.session import (
    BackoffPolicy,
    SessionAcceptor,
    SessionId,
    SessionRecord,
    SessionRegistry,
    establishment_reply,
    negotiate_resume,
    new_session_id,
)

__all__ = [
    "SessionId",
    "new_session_id",
    "BackoffPolicy",
    "SessionRecord",
    "SessionRegistry",
    "SessionAcceptor",
    "establishment_reply",
    "negotiate_resume",
]
