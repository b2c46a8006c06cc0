package svc

import "context"

// Status fetches the campaign snapshot.
func (c *Client) Status(ctx context.Context) (*StatusResponse, error) {
	resp := &StatusResponse{}
	if err := c.call(ctx, "/v1/status", nil, resp); err != nil {
		return nil, err
	}
	return resp, nil
}
