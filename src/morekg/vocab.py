"""Namespace constants and the vocabulary used across the toolkit.

OBO-style IRIs are composed as prefix + printed local name (e.g.
``obi:has_specified_output`` -> ``...OBI_has_specified_output``); an
alias table can remap them at load time.
"""

from .rdf import IRI

MORE = "https://w3id.org/more#"
OBI = "http://purl.obolibrary.org/obo/OBI_"
IAO = "http://purl.obolibrary.org/obo/IAO_"
BFO = "http://purl.obolibrary.org/obo/BFO_"
PATO = "http://purl.obolibrary.org/obo/PATO_"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"

KG_BASE = "https://w3id.org/more/kg/"

DEFAULT_PREFIXES = {
    "more": MORE,
    "obi": OBI,
    "iao": IAO,
    "bfo": BFO,
    "pato": PATO,
    "rdf": RDF,
    "rdfs": RDFS,
    "xsd": XSD,
    "morekg": KG_BASE,
}

# rdf / rdfs
RDF_TYPE = IRI(RDF + "type")
RDF_PROPERTY = IRI(RDF + "Property")
RDFS_SUBCLASSOF = IRI(RDFS + "subClassOf")
RDFS_SUBPROPERTYOF = IRI(RDFS + "subPropertyOf")
RDFS_LABEL = IRI(RDFS + "label")

# xsd datatypes
XSD_STRING = IRI(XSD + "string")
XSD_INTEGER = IRI(XSD + "integer")
XSD_DECIMAL = IRI(XSD + "decimal")
XSD_DOUBLE = IRI(XSD + "double")
XSD_DATE = IRI(XSD + "date")

# classes
MORE_STUDY = IRI(MORE + "Study")
MORE_TEST_ITEM = IRI(MORE + "TestItem")
MORE_TEST_PROCESS = IRI(MORE + "TestProcess")
MORE_PERSON = IRI(MORE + "Person")
MORE_HANDGRIP_TEST_PROCESS = IRI(MORE + "HandgripTestProcess")
IAO_PLAN_SPECIFICATION = IRI(IAO + "PlanSpecification")
IAO_INFORMATION_CONTENT_ENTITY = IRI(IAO + "InformationContentEntity")
IAO_PLAN = IRI(IAO + "Plan")
IAO_SCALAR_MEASUREMENT_DATUM = IRI(IAO + "ScalarMeasurementDatum")
OBI_ASSAY = IRI(OBI + "Assay")
OBI_EVALUANT_ROLE = IRI(OBI + "EvaluantRole")
OBI_VALUE_SPECIFICATION = IRI(OBI + "ValueSpecification")
BFO_PROCESS = IRI(BFO + "Process")
BFO_MATERIAL_ENTITY = IRI(BFO + "MaterialEntity")
BFO_DISPOSITION = IRI(BFO + "Disposition")

# properties
PATO_EXECUTES = IRI(PATO + "executes")
OBI_HAS_SPECIFIED_OUTPUT = IRI(OBI + "has_specified_output")
OBI_HAS_VALUE_SPECIFICATION = IRI(OBI + "has_value_specification")
OBI_SPECIFIES_VALUE_OF = IRI(OBI + "specifies_value_of")
OBI_HAS_ROLE = IRI(OBI + "has_role")
OBI_HAS_PARTICIPANT = IRI(OBI + "has_participant")
OBI_REALIZES = IRI(OBI + "realizes")
BFO_CONCRETIZES = IRI(BFO + "concretizes")
BFO_INHERES_IN = IRI(BFO + "inheres_in")
MORE_MEASURES_DISPOSITION = IRI(MORE + "measures_disposition")
MORE_HAS_AGE = IRI(MORE + "hasAge")
MORE_HAS_SEX = IRI(MORE + "hasSex")
MORE_HAS_HEIGHT = IRI(MORE + "hasHeight")
MORE_HAS_WEIGHT = IRI(MORE + "hasWeight")
MORE_HAS_BMI = IRI(MORE + "hasBmi")
MORE_HAS_TITLE = IRI(MORE + "hasTitle")
MORE_HAS_DOI = IRI(MORE + "hasDoi")
MORE_HAS_VALUE = IRI(MORE + "hasValue")
MORE_HAS_UNIT = IRI(MORE + "hasUnit")
MORE_HAS_TRIAL = IRI(MORE + "hasTrial")
MORE_HAS_SESSION_DATE = IRI(MORE + "hasSessionDate")
MORE_PART_OF_STUDY = IRI(MORE + "partOfStudy")
MORE_CONDUCTED_IN_YEAR = IRI(MORE + "conductedInYear")

DECLARED_PROPERTIES = (
    PATO_EXECUTES,
    OBI_HAS_SPECIFIED_OUTPUT,
    OBI_HAS_VALUE_SPECIFICATION,
    OBI_SPECIFIES_VALUE_OF,
    OBI_HAS_ROLE,
    OBI_HAS_PARTICIPANT,
    OBI_REALIZES,
    BFO_CONCRETIZES,
    BFO_INHERES_IN,
    MORE_MEASURES_DISPOSITION,
    MORE_HAS_AGE,
    MORE_PART_OF_STUDY,
    MORE_CONDUCTED_IN_YEAR,
)


def camel_case(name: str) -> str:
    """``shuttle_run`` / ``shuttle run`` -> ``ShuttleRun``."""
    parts = name.replace("-", " ").replace("_", " ").split()
    return "".join(p[:1].upper() + p[1:] for p in parts)
