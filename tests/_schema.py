"""The CLI's output schema, checked once, and the one validator the tests share.

``jsonschema.validate(payload, SCHEMA)`` checks the schema itself again on
every call; ``VALIDATOR.validate(payload)`` validates the payload only.
"""

import json
from pathlib import Path

import jsonschema

import ewfs

SCHEMA = json.loads(
    (Path(ewfs.__file__).parent / "data" / "output.schema.json").read_text(encoding="utf-8")
)
jsonschema.Draft7Validator.check_schema(SCHEMA)
VALIDATOR = jsonschema.Draft7Validator(SCHEMA)
