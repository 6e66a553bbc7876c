"""Addressing for the ADN substrate.

ADN assumes only "a (virtual) link layer that can deliver packets to
endpoints based on a flat identifier such as a MAC address" (paper §3).
We model that identifier as a 6-byte :class:`FlatId` derived
deterministically from the endpoint name, and service/instance names as
structured strings (``"B"``, ``"B.1"``) the control plane resolves to
flat ids.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple


@dataclass(frozen=True, order=True)
class FlatId:
    """A 6-byte flat endpoint identifier (MAC-address-like)."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != 6:
            raise ValueError(f"FlatId must be 6 bytes, got {len(self.value)}")

    @staticmethod
    @lru_cache(maxsize=4096)
    def for_name(name: str) -> "FlatId":
        """Endpoint names recur on every frame; hash each one once (a
        FlatId is immutable, so every caller can share it)."""
        digest = hashlib.blake2b(name.encode("utf-8"), digest_size=6).digest()
        return FlatId(digest)

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.value)


@dataclass(frozen=True)
class InstanceName:
    """``service.index`` — one replica of a service."""

    service: str
    index: int

    def __str__(self) -> str:
        return f"{self.service}.{self.index}"

    @classmethod
    def parse(cls, text: str) -> "InstanceName":
        service, _, index = text.rpartition(".")
        if not service or not index.isdigit():
            raise ValueError(f"not an instance name: {text!r}")
        return cls(service=service, index=int(index))

    @property
    def flat_id(self) -> FlatId:
        return FlatId.for_name(str(self))


def split_destination(dst: str) -> Tuple[str, Optional[int]]:
    """Split ``"B.1"`` into ``("B", 1)`` and ``"B"`` into ``("B", None)``.

    A destination naming only a service means "any replica" — some element
    (a load balancer) or the controller's default policy must pick one.
    """
    service, _, index = dst.rpartition(".")
    if service and index.isdigit():
        return service, int(index)
    return dst, None
