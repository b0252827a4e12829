"""XML (de)serialization and the advertisement type registry.

Deserialization dispatches on the ``type`` attribute of the document
root, mirroring JXTA's ``AdvertisementFactory`` registry.
"""

from __future__ import annotations

from typing import Dict, Type
import xml.etree.ElementTree as ET

from repro.advertisement.base import Advertisement


class UnknownAdvertisementType(ValueError):
    """The XML document's type is not registered."""


_REGISTRY: Dict[str, Type[Advertisement]] = {}


def register_advertisement_type(cls: Type[Advertisement]) -> Type[Advertisement]:
    """Class decorator: register ``cls`` under its ``ADV_TYPE``."""
    existing = _REGISTRY.get(cls.ADV_TYPE)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"advertisement type {cls.ADV_TYPE!r} already registered "
            f"to {existing.__name__}"
        )
    _REGISTRY[cls.ADV_TYPE] = cls
    return cls


def parse_advertisement(xml_str: str) -> Advertisement:
    """Parse an XML document produced by ``Advertisement.to_xml``."""
    try:
        root = ET.fromstring(xml_str)
    except ET.ParseError as exc:
        raise ValueError(f"malformed advertisement XML: {exc}") from exc
    adv_type = root.get("type")
    if adv_type is None:
        raise ValueError("advertisement root missing 'type' attribute")
    cls = _REGISTRY.get(adv_type)
    if cls is None:
        raise UnknownAdvertisementType(
            f"no advertisement class registered for {adv_type!r}"
        )
    fields = {child.tag: (child.text or "") for child in root}
    return cls._from_fields(fields)
