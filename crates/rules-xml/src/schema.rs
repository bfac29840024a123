//! Schema mapping between the XML capability file (Fig. 7) and
//! [`sb_motion::RuleCatalog`].

use crate::xml::{self, XmlError, XmlNode};
use sb_motion::{ElementaryMove, MatrixCoord, MotionMatrix, MotionRule, RuleCatalog};
use std::fmt;

/// Errors raised while interpreting a capability document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// The document is not well-formed XML.
    Xml(XmlError),
    /// The root element is not `<capabilities>`.
    WrongRoot(String),
    /// A `<capability>` misses a required attribute or child.
    Missing {
        /// The capability name (or `?` when the name itself is missing).
        capability: String,
        /// What is missing.
        what: String,
    },
    /// A numeric field could not be parsed.
    BadNumber {
        /// The capability name.
        capability: String,
        /// The offending text.
        text: String,
    },
    /// A coordinate attribute is not of the form `col,row`.
    BadCoordinate {
        /// The capability name.
        capability: String,
        /// The offending text.
        text: String,
    },
    /// The `<states>` matrix or the moves are inconsistent.
    BadRule {
        /// The capability name.
        capability: String,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Xml(e) => write!(f, "XML error: {e}"),
            SchemaError::WrongRoot(name) => {
                write!(f, "expected <capabilities> root element, found <{name}>")
            }
            SchemaError::Missing { capability, what } => {
                write!(f, "capability {capability:?}: missing {what}")
            }
            SchemaError::BadNumber { capability, text } => {
                write!(f, "capability {capability:?}: cannot parse number {text:?}")
            }
            SchemaError::BadCoordinate { capability, text } => {
                write!(f, "capability {capability:?}: bad coordinate {text:?}")
            }
            SchemaError::BadRule {
                capability,
                message,
            } => write!(f, "capability {capability:?}: {message}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl From<XmlError> for SchemaError {
    fn from(e: XmlError) -> Self {
        SchemaError::Xml(e)
    }
}

/// The XML capability file of Fig. 7 of the paper, verbatim in content:
/// the `east1` sliding rule and the `carry_east1` carrying rule.
pub fn paper_capabilities_xml() -> &'static str {
    r#"<?xml version="1.0" encoding="utf-8"?>
<capabilities>
  <capability name="east1" size="3,3">
    <states>
      2 0 0
      2 4 3
      2 1 1
    </states>
    <motions>
      <motion time="0" from="1,1" to="2,1" />
    </motions>
  </capability>
  <capability name="carry_east1" size="3,3">
    <states>
      0 0 0
      4 5 3
      2 1 2
    </states>
    <motions>
      <motion time="0" from="1,1" to="2,1" />
      <motion time="0" from="0,1" to="1,1" />
    </motions>
  </capability>
</capabilities>
"#
}

/// Parses a capability document into a rule catalogue.
pub fn parse_capabilities(text: &str) -> Result<RuleCatalog, SchemaError> {
    let root = xml::parse(text)?;
    if root.name != "capabilities" {
        return Err(SchemaError::WrongRoot(root.name));
    }
    let mut catalog = RuleCatalog::new();
    for cap in root.children_named("capability") {
        catalog.push(parse_capability(cap)?);
    }
    Ok(catalog)
}

fn parse_capability(cap: &XmlNode) -> Result<MotionRule, SchemaError> {
    let name = cap
        .attr("name")
        .ok_or_else(|| SchemaError::Missing {
            capability: "?".to_string(),
            what: "name attribute".to_string(),
        })?
        .to_string();
    let size_attr = cap.attr("size").ok_or_else(|| SchemaError::Missing {
        capability: name.clone(),
        what: "size attribute".to_string(),
    })?;
    let (cols, rows) = parse_pair(size_attr).ok_or_else(|| SchemaError::BadCoordinate {
        capability: name.clone(),
        text: size_attr.to_string(),
    })?;
    if cols != rows {
        return Err(SchemaError::BadRule {
            capability: name,
            message: format!("non-square size {cols}x{rows} is not supported"),
        });
    }
    let size = cols;

    let states = cap.child("states").ok_or_else(|| SchemaError::Missing {
        capability: name.clone(),
        what: "<states> element".to_string(),
    })?;
    let codes: Vec<u8> = states
        .text
        .split_whitespace()
        .map(|tok| {
            tok.parse::<u8>().map_err(|_| SchemaError::BadNumber {
                capability: name.clone(),
                text: tok.to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    let matrix = MotionMatrix::from_codes(size, &codes).map_err(|e| SchemaError::BadRule {
        capability: name.clone(),
        message: e.to_string(),
    })?;

    let motions_node = cap.child("motions").ok_or_else(|| SchemaError::Missing {
        capability: name.clone(),
        what: "<motions> element".to_string(),
    })?;
    let mut moves = Vec::new();
    for motion in motions_node.children_named("motion") {
        let time = match motion.attr("time") {
            Some(t) => t.parse::<u32>().map_err(|_| SchemaError::BadNumber {
                capability: name.clone(),
                text: t.to_string(),
            })?,
            None => 0,
        };
        let from_attr = motion.attr("from").ok_or_else(|| SchemaError::Missing {
            capability: name.clone(),
            what: "motion 'from' attribute".to_string(),
        })?;
        let to_attr = motion.attr("to").ok_or_else(|| SchemaError::Missing {
            capability: name.clone(),
            what: "motion 'to' attribute".to_string(),
        })?;
        let from = parse_coord(from_attr, size).ok_or_else(|| SchemaError::BadCoordinate {
            capability: name.clone(),
            text: from_attr.to_string(),
        })?;
        let to = parse_coord(to_attr, size).ok_or_else(|| SchemaError::BadCoordinate {
            capability: name.clone(),
            text: to_attr.to_string(),
        })?;
        moves.push(ElementaryMove::at_time(time, from, to));
    }

    MotionRule::new(name.clone(), matrix, moves).map_err(|e| SchemaError::BadRule {
        capability: name,
        message: e.to_string(),
    })
}

/// Serialises a catalogue back to the Fig. 7 XML format.
pub fn write_capabilities(catalog: &RuleCatalog) -> String {
    let mut root = XmlNode::new("capabilities");
    for rule in catalog.rules() {
        let size = rule.size();
        let codes = rule.matrix().codes();
        let mut states_text = String::new();
        for row in 0..size {
            if row > 0 {
                states_text.push('\n');
            }
            let row_text: Vec<String> = (0..size)
                .map(|col| codes[row * size + col].to_string())
                .collect();
            states_text.push_str(&row_text.join(" "));
        }
        let mut motions = XmlNode::new("motions");
        for m in rule.moves() {
            motions = motions.with_child(
                XmlNode::new("motion")
                    .with_attr("time", m.time.to_string())
                    .with_attr("from", format!("{},{}", m.from.col, m.from.row))
                    .with_attr("to", format!("{},{}", m.to.col, m.to.row)),
            );
        }
        root = root.with_child(
            XmlNode::new("capability")
                .with_attr("name", rule.name())
                .with_attr("size", format!("{size},{size}"))
                .with_child(XmlNode::new("states").with_text(states_text))
                .with_child(motions),
        );
    }
    format!(
        "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n{}",
        root.to_xml()
    )
}

fn parse_pair(text: &str) -> Option<(usize, usize)> {
    let mut parts = text.split(',');
    let a = parts.next()?.trim().parse().ok()?;
    let b = parts.next()?.trim().parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((a, b))
}

fn parse_coord(text: &str, size: usize) -> Option<MatrixCoord> {
    let (col, row) = parse_pair(text)?;
    if col >= size || row >= size {
        return None;
    }
    Some(MatrixCoord::new(col, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_motion::rules;

    #[test]
    fn paper_file_parses_to_the_two_base_rules() {
        let catalog = parse_capabilities(paper_capabilities_xml()).unwrap();
        assert_eq!(catalog.len(), 2);
        let east = catalog.find("east1").unwrap();
        assert_eq!(east.matrix(), rules::east_sliding().matrix());
        assert_eq!(east.moves(), rules::east_sliding().moves());
        let carry = catalog.find("carry_east1").unwrap();
        assert_eq!(carry.matrix(), rules::east_carrying().matrix());
        assert_eq!(carry.moves(), rules::east_carrying().moves());
    }

    #[test]
    fn write_then_parse_round_trips_the_standard_catalog() {
        let catalog = RuleCatalog::standard();
        let text = write_capabilities(&catalog);
        let again = parse_capabilities(&text).unwrap();
        assert_eq!(again.len(), catalog.len());
        for rule in catalog.rules() {
            let round = again.find(rule.name()).expect("rule survives round trip");
            assert_eq!(round.matrix(), rule.matrix());
            assert_eq!(round.moves(), rule.moves());
        }
    }

    #[test]
    fn missing_name_is_reported() {
        let doc = r#"<capabilities><capability size="3,3"><states>2 0 0 2 4 3 2 1 1</states>
            <motions><motion from="1,1" to="2,1"/></motions></capability></capabilities>"#;
        assert!(matches!(
            parse_capabilities(doc).unwrap_err(),
            SchemaError::Missing { .. }
        ));
    }

    #[test]
    fn missing_states_is_reported() {
        let doc = r#"<capabilities><capability name="x" size="3,3">
            <motions><motion from="1,1" to="2,1"/></motions></capability></capabilities>"#;
        let err = parse_capabilities(doc).unwrap_err();
        assert!(matches!(err, SchemaError::Missing { ref what, .. } if what.contains("states")));
    }

    #[test]
    fn bad_size_and_coordinates_are_reported() {
        let doc = r#"<capabilities><capability name="x" size="3x3"><states>2 0 0 2 4 3 2 1 1</states>
            <motions><motion from="1,1" to="2,1"/></motions></capability></capabilities>"#;
        assert!(matches!(
            parse_capabilities(doc).unwrap_err(),
            SchemaError::BadCoordinate { .. }
        ));
        let doc = r#"<capabilities><capability name="x" size="3,5"><states>2 0 0 2 4 3 2 1 1</states>
            <motions><motion from="1,1" to="2,1"/></motions></capability></capabilities>"#;
        assert!(matches!(
            parse_capabilities(doc).unwrap_err(),
            SchemaError::BadRule { .. }
        ));
        let doc = r#"<capabilities><capability name="x" size="3,3"><states>2 0 0 2 4 3 2 1 1</states>
            <motions><motion from="7,1" to="2,1"/></motions></capability></capabilities>"#;
        assert!(matches!(
            parse_capabilities(doc).unwrap_err(),
            SchemaError::BadCoordinate { .. }
        ));
    }

    #[test]
    fn oversized_capability_is_a_schema_error() {
        // Well-formed 9×9 capability: its window does not fit the
        // compiled rule masks, so parsing must reject it, not panic.
        let mut states = vec!["2"; 81];
        states[40] = "4";
        states[41] = "3";
        let doc = format!(
            r#"<capabilities><capability name="big" size="9,9"><states>{}</states>
            <motions><motion from="4,4" to="5,4"/></motions></capability></capabilities>"#,
            states.join(" ")
        );
        let err = parse_capabilities(&doc).unwrap_err();
        assert!(
            matches!(err, SchemaError::BadRule { ref message, .. } if message.contains("size 9")),
            "{err}"
        );
    }

    #[test]
    fn bad_event_code_is_reported() {
        let doc = r#"<capabilities><capability name="x" size="3,3"><states>2 0 0 2 9 3 2 1 1</states>
            <motions><motion from="1,1" to="2,1"/></motions></capability></capabilities>"#;
        assert!(matches!(
            parse_capabilities(doc).unwrap_err(),
            SchemaError::BadRule { .. }
        ));
    }

    #[test]
    fn non_numeric_state_is_reported() {
        let doc = r#"<capabilities><capability name="x" size="3,3"><states>2 0 0 2 a 3 2 1 1</states>
            <motions><motion from="1,1" to="2,1"/></motions></capability></capabilities>"#;
        assert!(matches!(
            parse_capabilities(doc).unwrap_err(),
            SchemaError::BadNumber { .. }
        ));
    }

    #[test]
    fn wrong_root_is_reported() {
        assert!(matches!(
            parse_capabilities("<rules/>").unwrap_err(),
            SchemaError::WrongRoot(_)
        ));
    }

    #[test]
    fn motion_time_defaults_to_zero() {
        let doc = r#"<capabilities><capability name="x" size="3,3"><states>2 0 0 2 4 3 2 1 1</states>
            <motions><motion from="1,1" to="2,1"/></motions></capability></capabilities>"#;
        let catalog = parse_capabilities(doc).unwrap();
        assert_eq!(catalog.find("x").unwrap().moves()[0].time, 0);
    }
}
