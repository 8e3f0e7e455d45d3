//! One description of a job, one JSON form: `JobDesc::{from_json,
//! write_json}` are what `POST /v1/jobs`, the journal's `submitted` record
//! and `zkml submit` all go through.

use zkml_net::{JobDesc, Json, JsonObj, Priority, Record};
use zkml_pcs::Backend;
use zkml_shard::SegmentSpec;

#[test]
fn job_desc_json_roundtrips() {
    let prove = |segments, model_digest| JobDesc::Prove {
        model: "mnist".into(),
        backend: Backend::Ipa,
        seed: 9,
        segments,
        model_digest,
    };
    for desc in [
        prove(None, None),
        prove(None, Some([0x5A; 32])),
        prove(Some(SegmentSpec::Auto), None),
        prove(Some(SegmentSpec::Fixed(1)), None),
        prove(Some(SegmentSpec::Fixed(3)), None),
        JobDesc::Sleep { ms: 60_000 },
        JobDesc::Verify,
    ] {
        let line = desc.write_json(JsonObj::new()).finish();
        let back = JobDesc::from_json(&Json::parse(&line).unwrap());
        assert_eq!(back, Ok(desc), "line: {line}");
    }
}

/// `POST /v1/jobs` and the journal read one vocabulary with one set of
/// defaults: a body that leaves them out is the job its journal line spells
/// in full.
#[test]
fn http_defaults_match_the_spelled_journal_line() {
    for (job, body, line) in [
        (
            1,
            r#"{"model":"mnist"}"#,
            r#"{"rec":"submitted","job":1,"tenant":"anonymous","priority":"interactive","kind":"prove","model":"mnist","backend":"kzg","seed":1}"#,
        ),
        (
            2,
            r#"{"model":"mnist","segments":3}"#,
            r#"{"rec":"submitted","job":2,"tenant":"anonymous","priority":"interactive","kind":"prove_segmented","model":"mnist","backend":"kzg","seed":1,"segments":3}"#,
        ),
        (
            3,
            r#"{"model":"mnist","kind":"prove_segmented"}"#,
            r#"{"rec":"submitted","job":3,"tenant":"anonymous","priority":"interactive","kind":"prove_segmented","model":"mnist","backend":"kzg","seed":1,"segments":"auto"}"#,
        ),
        (
            4,
            r#"{"kind":"sleep"}"#,
            r#"{"rec":"submitted","job":4,"tenant":"anonymous","priority":"interactive","kind":"sleep","sleep_ms":0}"#,
        ),
    ] {
        let submitted = Record::Submitted {
            job,
            tenant: "anonymous".into(),
            priority: Priority::Interactive,
            desc: JobDesc::from_json(&Json::parse(body).unwrap()).unwrap(),
        };
        assert_eq!(Record::decode(line).unwrap(), submitted, "body: {body}");
        assert_eq!(submitted.encode(), line);
    }
}

/// Journal lines are input like any other: what `POST /v1/jobs` refuses,
/// replay refuses.
#[test]
fn journal_lines_are_validated_like_http_bodies() {
    let line = |fields: &str| {
        format!(r#"{{"rec":"submitted","job":1,"tenant":"t","priority":"batch",{fields}}}"#)
    };
    let prove = r#""model":"mnist","backend":"kzg","seed":1"#;
    let digest = "5a".repeat(32);
    for fields in [
        format!(r#""kind":"prove_segmented",{prove},"segments":0"#),
        format!(r#""kind":"prove_segmented",{prove},"segments":-2"#),
        format!(r#""kind":"prove_segmented",{prove},"segments":2,"model_digest":"{digest}""#),
        format!(r#""kind":"prove",{prove},"model_digest":"5a5a""#),
        r#""kind":"prove","model":"mnist","backend":"groth16","seed":1"#.to_string(),
        r#""kind":"sleep","sleep_ms":60001"#.to_string(),
        r#""kind":"launch""#.to_string(),
    ] {
        let v = Json::parse(&line(&fields)).unwrap();
        assert!(JobDesc::from_json(&v).is_err(), "http accepts {fields}");
        assert!(
            Record::decode(&line(&fields)).is_err(),
            "journal accepts {fields}"
        );
    }
    assert!(Record::decode(&line(r#""kind":"sleep","sleep_ms":60000"#)).is_ok());
    let bad_tenant = r#"{"rec":"submitted","job":1,"tenant":"","priority":"batch","kind":"sleep"}"#;
    assert!(Record::decode(bad_tenant).is_err());
}
