BEGIN TRANSACTION;
CREATE TABLE regions (
    shape_key TEXT PRIMARY KEY,
    region TEXT NOT NULL,
    seq INTEGER NOT NULL
);
INSERT INTO "regions" VALUES('ef6cc58a5943f51e4126513cdde571184dba8f5e1dfd88d541e8e78819d15cc1','{"corners": {"SA/DS": [130.9909458722554, 2916.068123224663, 1566.9822484525876, 1887.831591478275, 581.816121048766, 83.54785775447078], "SA/PM": [109.53726559354587, 2897.9187256586924, 1602.0901405015627, 1930.1280423702453, 594.8515830588206, 85.4197291007248]}, "dimensions": ["T1,1", "T1,2", "T2,1", "T2,2", "T3,1", "T3,2"], "format": "repro-feasibility-region-v1", "probes": 156, "shape_key": "ef6cc58a5943f51e4126513cdde571184dba8f5e1dfd88d541e8e78819d15cc1", "timebase": "float"}',1);
INSERT INTO "regions" VALUES('eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee','{"corners": {"SA/DS": [0.75, 1.5], "SA/PM": null}, "dimensions": ["T1,1", "T1,2"], "format": "repro-feasibility-region-v1", "probes": 3, "shape_key": "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee", "timebase": "float"}',4);
INSERT INTO "regions" VALUES('dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd','{"corners": {"SA/DS": ["7/3", "123456789/65536"], "SA/PM": ["5/2", 4]}, "dimensions": ["T1,1", "T1,2"], "format": "repro-feasibility-region-v1", "probes": 31, "shape_key": "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd", "timebase": "exact"}',3);
CREATE INDEX regions_seq ON regions (seq);
COMMIT;
