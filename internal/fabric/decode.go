package fabric

import "cactid/internal/jsondec"

// The fabric wire's typed decoding. A worker decodes every batch's
// BatchRequest and the coordinator every BatchResponse, and
// encoding/json's reflection walk cost more than the solves the
// bodies carry. Both are decoded by internal/jsondec, under its
// rules, with WireResult's field switch below. The request rejects
// unknown keys, as cactid-serve's decode does with
// DisallowUnknownFields; the reply skips them after checking their
// grammar, so a newer worker may add fields. FuzzWireDecode holds
// the decoding to encoding/json.

// DecodeBatchRequest decodes a worker's ?wire=fabric request body.
func DecodeBatchRequest(data []byte) (BatchRequest, error) {
	var req BatchRequest
	err := decodeBody(data, true, "specs", func(d *jsondec.Decoder) error {
		return jsondec.Slice(d, &req.Specs, d.Spec)
	})
	return req, err
}

// DecodeBatchResponse decodes a worker's ?wire=fabric reply body.
func DecodeBatchResponse(data []byte) (BatchResponse, error) {
	var resp BatchResponse
	err := decodeBody(data, false, "results", func(d *jsondec.Decoder) error {
		return jsondec.Slice(d, &resp.Results, func(r *WireResult) error { return decodeResult(d, r) })
	})
	return resp, err
}

// decodeBody decodes a whole body: null, or an object whose one field
// is key, which field decodes.
func decodeBody(data []byte, strict bool, key string, field func(*jsondec.Decoder) error) error {
	return jsondec.Decode(data, strict, func(d *jsondec.Decoder) error {
		return d.Object(func(k []byte) error {
			if string(k) == key {
				return field(d)
			}
			return d.Unknown(k, []string{key})
		})
	})
}

var resultKeys = jsondec.Keys(WireResult{})

func decodeResult(d *jsondec.Decoder, r *WireResult) error {
	return d.Object(func(key []byte) error {
		switch string(key) {
		case "index":
			return jsondec.Int(d, &r.Index)
		case "spec":
			return d.Spec(&r.Spec)
		case "fingerprint":
			return d.String(&r.Fingerprint)
		case "cached":
			return d.Bool(&r.Cached)
		case "solution":
			return jsondec.Ptr(d, &r.Solution, d.Projection)
		case "error":
			return d.String(&r.Error)
		case "error_kind":
			return d.String(&r.ErrorKind)
		}
		return d.Unknown(key, resultKeys)
	})
}
